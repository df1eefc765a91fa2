// MonitorSet: the ARTEMIS application-specific monitor component.
//
// Implements the kernel's PropertyChecker interface over a collection of
// per-property monitors. Responsibilities:
//  * cycle accounting under CostTag::kMonitor (Figure 15's "monitor
//    overhead" bar): the interface crossing, then the event's monitors as
//    one Mcu::ExecuteChargeRun of the backend's step charge (StepCharge),
//    which is bit-identical to charging the monitors one by one;
//  * stepping, within the charged prefix, only the monitors whose Step can
//    react to the event's (kind, task) (Monitor::Reacts), looked up in a
//    reactor table the constructor builds; the others are charged as on
//    the device but not run on the host;
//  * power-failure-resilient event processing: the ImmortalThreads-style
//    local continuation persists which monitors have already consumed the
//    current event, so a re-delivered event (same seq) resumes instead of
//    double-stepping (Section 4.2.3);
//  * exactly-once verdicts: once an event's verdict is computed it is cached
//    against the seq, so the kernel can retry boundary transitions
//    idempotently; the cached verdict's label views monitor-owned storage,
//    so monitors replaced by a hot swap stay alive until the cache moves on;
//  * severity arbitration across simultaneously failing properties;
//  * its FRAM footprint for Table 2 (FramBytes), which its owner registers
//    under MemOwner::kMonitor when it assembles the device;
//  * publishing event deliveries, arbitrated verdicts (with per-event
//    cycle cost) and path resets on the MCU's bus (Mcu::observer).
#ifndef SRC_MONITOR_MONITOR_SET_H_
#define SRC_MONITOR_MONITOR_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/flight/recorder.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/checker.h"
#include "src/kernel/immortal.h"
#include "src/monitor/monitor.h"
#include "src/obs/bus.h"
#include "src/sim/cost_model.h"
#include "src/spec/ast.h"

namespace artemis {

enum class MonitorBackend { kInterpreted, kBuiltin, kCompiled };

const char* MonitorBackendName(MonitorBackend backend);

// Where the monitors live relative to the application MCU — the Section 7
// "Implementation Alternatives" trade-off:
//  * kSeparate — the paper's design: a distinct monitor component, events
//    cross the runtime->monitor interface (default).
//  * kInlined  — compiler-woven checks: no interface-crossing cost and the
//    per-step work is accounted as runtime time, at the price of duplicated
//    code (larger .text, see InlinedTextBytes).
//  * kRemote   — monitors on an external wirelessly-connected device: the
//    local MCU only pays radio TX/RX per event, which is far more expensive
//    than local checking (wireless >> compute).
enum class MonitorPlacement { kSeparate, kInlined, kRemote };

const char* MonitorPlacementName(MonitorPlacement placement);

// The charge of one monitor step on `backend`.
const CycleCharge& StepCharge(MonitorBackend backend, const CycleCharges& charges);

// Table 2's FRAM record for the set's cached verdict (action, target path
// and property label). A fixed layout, not sizeof(MonitorVerdict), so the
// FRAM column does not depend on the host's standard library.
inline constexpr std::size_t kVerdictCacheFramBytes = 40;

// Table 2's FRAM bytes of a set of `monitors` monitors whose states take
// `state_bytes` in all: the set's done seq, verdict cache and continuation,
// then each monitor's state and its 24-byte property_t slot (action, path
// and task plumbing, Figure 10).
std::size_t MonitorSetFramBytes(std::size_t monitors, std::size_t state_bytes);

// The radio round trip MonitorPlacement::kRemote charges per event.
struct RadioProfile {
  // Transmitting one MonitorEvent_t to the external monitor.
  SimDuration tx_time = 4 * kMillisecond;
  Milliwatts tx_power = 24.0;
  // Receiving the verdict.
  SimDuration rx_time = 2 * kMillisecond;
  Milliwatts rx_power = 18.0;
};

class MonitorSet : public PropertyChecker {
 public:
  // Every monitor runs on `backend`, so each step costs its StepCharge.
  // `tasks` is the app's task count: every monitor reacts only to in-graph
  // task ids, so one reactor column serves all task ids at or past it.
  MonitorSet(MonitorBackend backend, MonitorPlacement placement,
             std::vector<std::unique_ptr<Monitor>> monitors, std::size_t tasks);

  std::size_t size() const { return monitors_.size(); }
  const Monitor& monitor(std::size_t i) const { return *monitors_[i]; }
  Monitor& monitor(std::size_t i) { return *monitors_[i]; }

  // PropertyChecker implementation. HardReset resets state only: the set's
  // FRAM is registered when the device is assembled.
  void HardReset(Mcu& mcu) override;
  void Finalize(Mcu& mcu) override;
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) override;
  void OnPathRestart(PathId path, Mcu& mcu) override;
  std::string Name() const override { return "artemis-monitors"; }

  // Persistent monitor footprint in bytes (Table 2, monitor FRAM column).
  std::size_t FramBytes() const;

  // Number of processed events / reported violations, for benches.
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t violations_reported() const { return violations_reported_; }

  MonitorPlacement placement() const { return placement_; }

  // On-device flight recorder (src/flight): when set, violated verdicts are
  // sealed into the FRAM black box before the verdict cache is written, so
  // an interrupted append replays the whole arbitration and retries.
  void set_flight(flight::FlightRecorder* recorder) { flight_ = recorder; }

  // .text proxy when the monitors are inlined at every event site instead of
  // generated once: the per-machine code duplicates per call site
  // (Section 6's memory-footprint argument against AOP-style weaving).
  static std::size_t InlinedTextBytes(std::size_t separate_text_bytes,
                                      std::size_t call_sites);

  // ---- hot-swap entry points (src/swap/hotswap.cc) ----------------------
  // True when no event is mid-arbitration: the continuation cursor is
  // retired and every monitor's FRAM state is at a transition boundary.
  // The swap controller only replaces images at quiescence.
  bool quiescent() const { return !continuation_.InProgress(); }
  // The continuation cursor: how many monitors have consumed the in-flight
  // event (0 when quiescent).
  std::size_t cursor() const { return continuation_.cursor(); }
  // Atomically (host-side; durability is the controller's job) replaces the
  // monitor collection with the new image's freshly-built, state-migrated
  // monitors. The seq-keyed verdict cache and event/violation counters are
  // kept: the event stream continues across the swap, so a re-delivered
  // pre-swap event must still replay its cached verdict instead of
  // double-stepping the new machines.
  void ReplaceMonitors(std::vector<std::unique_ptr<Monitor>> monitors);

 private:
  MonitorBackend backend_;
  MonitorPlacement placement_;
  std::size_t tasks_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  flight::FlightRecorder* flight_ = nullptr;

  // Monitors replaced by ReplaceMonitors, kept while cached_verdict_ may
  // view a label they own or keep alive.
  std::vector<std::unique_ptr<Monitor>> retired_;

  // The reactor table, filled by the constructor and ReplaceMonitors from
  // Monitor::Reacts: column min(task, tasks_) * 2 + kind lists, ascending,
  // the monitors that react to an event of that kind on that task, as
  // reactors_[column_begin_[column] .. column_begin_[column + 1]).
  std::vector<std::uint32_t> reactors_;
  std::vector<std::uint32_t> column_begin_;
  void IndexReactors();

  // ---- FRAM-resident progress state (ImmortalThreads-backed) ----
  ImmortalContext continuation_;
  std::vector<MonitorVerdict> pending_;  // failures gathered for the in-flight event
  std::uint64_t done_seq_ = 0;           // last fully processed event
  // Explicit cache-valid flag: `done_seq_` alone cannot distinguish "no
  // event processed yet" from a processed event with seq == 0.
  bool has_cached_verdict_ = false;
  MonitorVerdict cached_verdict_;        // its arbitrated verdict

  std::uint64_t events_processed_ = 0;
  std::uint64_t violations_reported_ = 0;
};

// Builds a MonitorSet from a spec with the chosen backend, through the
// shared artifact pipeline (BuildSpecArtifactFromAst, then
// BuildMonitorSetFromArtifact in src/monitor/shared_spec.h): the spec is
// validated, kInterpreted lowers each property to an intermediate-language
// machine and interprets it; kBuiltin instantiates the Figure 10 style
// structures; kCompiled lowers and then flattens each machine into
// slot-indexed bytecode (src/ir/compile.h) — see docs/monitor-backends.md.
StatusOr<std::unique_ptr<MonitorSet>> BuildMonitorSet(
    const SpecAst& spec, const AppGraph& graph, MonitorBackend backend,
    MonitorPlacement placement = MonitorPlacement::kSeparate);

}  // namespace artemis

#endif  // SRC_MONITOR_MONITOR_SET_H_
