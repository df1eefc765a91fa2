// Mayfly baseline (Hester, Storer, Sorber — SenSys '17), re-implemented per
// the paper's comparison semantics (Sections 5.1.1 and 6):
//  * supports only data expiration (MITD) and collection-count (collect)
//    checks;
//  * the checks are fused into the runtime loop (no separate monitor
//    component) and their cycle cost is charged to the runtime;
//  * the only reaction to a violation is restarting the task graph path —
//    there is no maxTries / maxAttempt escape, which is exactly why Mayfly
//    livelocks in Figure 12 when charging delays exceed the expiration
//    window.
#ifndef SRC_MAYFLY_MAYFLY_H_
#define SRC_MAYFLY_MAYFLY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/checker.h"
#include "src/kernel/kernel.h"
#include "src/sim/cost_model.h"
#include "src/sim/mcu.h"
#include "src/spec/ast.h"

namespace artemis {

struct MayflyRule {
  enum class Kind { kExpiration, kCollect } kind = Kind::kExpiration;
  TaskId task = kInvalidTask;   // consuming task
  TaskId dep = kInvalidTask;    // producing task
  SimDuration expiry = 0;       // kExpiration: max data age at consume time
  std::uint64_t count = 0;      // kCollect: samples required
  PathId path = kNoPath;        // restart target
  PathId scope = kNoPath;       // event scope (only for path-merged consumers)
  std::string label;
};

// Table 2's FRAM footprint of one fused rule's configuration. A fixed
// layout, not sizeof(MayflyRule), so the FRAM column does not depend on the
// host's std::string.
inline constexpr std::size_t kMayflyRuleFramBytes = 72;

class MayflyChecker : public PropertyChecker {
 public:
  void AddRule(MayflyRule rule);

  // PropertyChecker: fused checks, charged to CostTag::kRuntime. HardReset
  // resets state only: MayflyRuntime registers the FRAM when it is built.
  void HardReset(Mcu& mcu) override;
  void Finalize(Mcu& mcu) override;
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) override;
  void OnPathRestart(PathId path, Mcu& mcu) override;
  std::string Name() const override { return "mayfly"; }

  // Fused-runtime FRAM footprint (timestamp table + counters), Table 2.
  std::size_t FramBytes() const;

 private:
  struct RuleState {
    SimTime last_dep_end = 0;
    bool dep_seen = false;
    std::uint64_t collected = 0;
  };

  std::vector<MayflyRule> rules_;
  std::vector<RuleState> states_;  // FRAM
};

// Derives the Mayfly rule set from an ARTEMIS spec, keeping only what Mayfly
// can express: MITD -> expiration (maxAttempt dropped), collect -> collect;
// maxTries / maxDuration / dpData / period / minEnergy are dropped
// (Section 5.1.1). Returns the rules plus the names of dropped properties.
struct MayflySpec {
  std::vector<MayflyRule> rules;
  std::vector<std::string> dropped;
};
StatusOr<MayflySpec> MayflyFromSpec(const SpecAst& spec, const AppGraph& graph);

// Thin wrapper pairing the checker with a kernel, mirroring ArtemisRuntime.
class MayflyRuntime {
 public:
  // The checker registers its FRAM, then the kernel its own; the arena's
  // first exhaustion (kResourceExhausted) refuses the runtime.
  static StatusOr<std::unique_ptr<MayflyRuntime>> Create(const AppGraph* graph,
                                                         const SpecAst& spec, Mcu* mcu,
                                                         KernelOptions options = {});

  KernelRunResult Run() { return kernel_->Run(); }
  const IntermittentKernel& kernel() const { return *kernel_; }
  IntermittentKernel& kernel() { return *kernel_; }
  const MayflyChecker& checker() const { return *checker_; }
  const std::vector<std::string>& dropped_properties() const { return dropped_; }

  static std::size_t RuntimeTextBytes();

 private:
  MayflyRuntime(const AppGraph* graph, MayflySpec spec, Mcu* mcu, KernelOptions options);

  std::unique_ptr<MayflyChecker> checker_;
  std::unique_ptr<IntermittentKernel> kernel_;
  std::vector<std::string> dropped_;
};

}  // namespace artemis

#endif  // SRC_MAYFLY_MAYFLY_H_
