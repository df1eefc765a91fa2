// Batch entry point to the compiled monitor VM: advances N lanes of the
// SAME compiled machine over N independent event cursors in one flat
// structure-of-arrays pass (src/fleet uses one lane per simulated device).
//
// Why a separate engine instead of N CompiledMonitor objects: the scalar
// path pays a virtual Monitor::Step call, a shared_ptr-held machine
// indirection, and a cache-scattered heap object per device per event.
// Here the per-lane state is three dense arrays owned by one object —
//
//   current_[lane]              control state ids, contiguous
//   slots_[lane * stride + s]   variable blocks, one cache-dense 2-D block
//   (bytecode/dispatch shared)  read-only, hot in L1 across all lanes
//
// — and a step is one pass over the caller's lane list. Each lane resolves
// its (state, kind, task) to an entry of the compiler's dispatch table
// (CompiledMachine::Entry) and reads that entry's 1-byte handler class: a
// lane whose handler is a bare kNoMatch (the bulk of fleet traffic) is
// dropped on the spot, and every other lane runs its handler program
// through the shared bytecode core (vm_core.h) right there, in list
// order, so failures append exactly as the scalar path would emit them.
// A lane's semantics are CompiledMonitor's: same dispatch, same programs,
// same reset rules.
//
// Handler classes are a static fact about each entry's program, reported
// by ClassOf / ClassHistogram / EntryClass and the traffic counters below
// (the fleet's `--stats` blocks); stepping tells only self-loop from
// everything else:
//
//   kSelfLoop           program is a bare kNoMatch — the event is a no-op
//   kCommit             unconditional state change (guard-free, empty body)
//   kStoreFieldCommit   `slot = event.field; state = to` (the fused
//                       store-commit superinstruction)
//   kGuardElapsedCommit `if (event.field - slot <cmp> K) state = to` where
//                       guard failure self-loops — the canonical MITD/MSS
//                       time-window transition
//   kGeneral            anything else
//
// Which (EventKind, TaskId) columns are self-loops in EVERY state is a
// static fact the compiler tabulates: ColumnDead below is the negation of
// CompiledMachine::Reacts, which is also how the scalar MonitorSet skips
// machines. src/fleet reads the same table (across all machines of a spec)
// to elide monitor-irrelevant fleet traffic before it ever reaches a lane:
// the paper's adaptability story means most monitors ignore most events,
// and a dead column is proof the event cannot touch lane state.
//
// Optional runtime traffic counters (EnableTraffic) count events per
// dispatch entry, answering "which columns are actually hot on this
// workload" — surfaced through FleetOutcome and `artemisc fleet --stats`.
//
// Equivalence with CompiledMonitor is enforced lane-by-lane by the
// differential fuzz tests in tests/compiled_monitor_test.cc.
#ifndef SRC_MONITOR_COMPILED_BATCH_H_
#define SRC_MONITOR_COMPILED_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/compile.h"
#include "src/kernel/checker.h"

namespace artemis {

// One failing lane from a StepBatchLanes pass. The batch step reports
// failures as a compact append-only list instead of a per-lane output
// array: most events fail nothing, and clearing N verdict slots per machine
// per event would cost more cache traffic than the stepping itself.
// `fail_index` resolves the property label on demand via
// BatchCompiledMonitor::fail_record (verdicts are rare, strings are not
// worth carrying through the hot pass).
struct BatchFailure {
  std::uint32_t lane = 0;
  ActionType action = ActionType::kNone;
  PathId target_path = kNoPath;
  std::uint32_t fail_index = 0;
};

class BatchCompiledMonitor {
 public:
  // How a dispatch-table handler program is classified (reporting and
  // test introspection; see the header comment).
  enum class HandlerClass : std::uint8_t {
    kSelfLoop = 0,
    kCommit,
    kStoreFieldCommit,
    kGuardElapsedCommit,
    kGeneral,
  };
  static constexpr std::size_t kNumClasses = 5;

  BatchCompiledMonitor(std::shared_ptr<const CompiledMachine> machine, std::uint32_t lanes);

  const CompiledMachine& machine() const { return *machine_; }

  // Steps the listed lanes: lane_list[i] consumes *events[lane_list[i]].
  // Unlisted lanes are untouched. Caller contract: `lane_list` is strictly
  // ascending, and every listed lane's event is non-null and within this
  // machine's path scope — the fleet feed proves both while building its
  // per-pass live / per-path lane lists, which is what makes a
  // path-scoped machine's pass cost proportional to the lanes on ITS path.
  // Failing lanes are APPENDED to `failures` in list order (the caller
  // clears it between passes); non-failing lanes write nothing.
  void StepBatchLanes(const MonitorEvent* const* events, const std::uint32_t* lane_list,
                      std::uint32_t count, std::vector<BatchFailure>* failures);

  void HardResetLane(std::uint32_t lane);
  void OnPathRestartLane(std::uint32_t lane, PathId path);

  const FailRecord& fail_record(std::uint32_t fail_index) const {
    return machine_->fail_pool[fail_index];
  }

  // ---- dead-column elision ---------------------------------------------
  // A (kind, task) column is dead when EVERY state's handler for it is
  // kSelfLoop (!CompiledMachine::Reacts): an event on that column provably
  // cannot change any lane's state, slots, or verdicts. Task ids above the
  // machine's dispatch range clamp onto the any-task column, exactly like
  // dispatch does.
  bool ColumnDead(EventKind kind, TaskId task) const { return !machine_->Reacts(kind, task); }
  // Dead / total (kind, task) columns, for static elision-rate reporting.
  std::uint32_t dead_column_count() const {
    return column_count() -
           static_cast<std::uint32_t>(
               std::count(machine_->reacts.begin(), machine_->reacts.end(), std::uint8_t{1}));
  }
  std::uint32_t column_count() const {
    return static_cast<std::uint32_t>(machine_->reacts.size());
  }

  // ---- runtime traffic profiling ---------------------------------------
  // Off by default (the step pass pays one predictable branch when off).
  // When enabled, every dispatched lane-event increments its entry's
  // counter — the measured dispatch-entry mix, as opposed to the static
  // ClassHistogram. Events elided by the fleet layer's dead-column check
  // never reach StepBatchLanes and are counted there, not here.
  void EnableTraffic();
  // Per-entry event counts, indexed like entries (see DecodeEntry). Empty
  // when disabled.
  const std::vector<std::uint64_t>& EntryTraffic() const { return traffic_; }
  // Runtime events per handler class (kSelfLoop..kGeneral), summed from
  // EntryTraffic. All zeros when disabled.
  std::vector<std::uint64_t> ClassTraffic() const;

  // Entry introspection for traffic reports. Entry ids index the
  // compiler's dispatch table (CompiledMachine::Entry), whose trailing
  // column holds the state's any-task handler (task == -1 here; the kind
  // is the one the event actually carried).
  struct EntryInfo {
    std::uint16_t state = 0;
    int kind = 0;
    int task = 0;
  };
  std::uint32_t entry_count() const { return static_cast<std::uint32_t>(class_of_.size()); }
  EntryInfo DecodeEntry(std::uint32_t entry) const;
  HandlerClass EntryClass(std::uint32_t entry) const {
    return static_cast<HandlerClass>(class_of_[entry]);
  }

  // Test hooks, mirroring CompiledMonitor's.
  const std::string& lane_state(std::uint32_t lane) const {
    return machine_->state_names[current_[lane]];
  }
  double LaneVarValue(std::uint32_t lane, const std::string& name) const;
  HandlerClass ClassOf(std::uint16_t state, EventKind kind, TaskId task) const {
    return EntryClass(machine_->Entry(state, kind, task));
  }
  // Dispatch-table entries per class, in HandlerClass order; the trailing
  // any-task column is not counted.
  std::vector<std::uint64_t> ClassHistogram() const;

 private:
  HandlerClass Classify(std::uint32_t pc) const;

  // The step pass, instantiated with and without traffic counting so the
  // profiling check costs nothing per lane when disabled.
  template <bool kTraffic>
  void StepLanes(const MonitorEvent* const* events, const std::uint32_t* lane_list,
                 std::uint32_t count, std::vector<BatchFailure>* failures);

  double* lane_slots(std::uint32_t lane) { return slots_.data() + lane * stride_; }
  const double* lane_slots(std::uint32_t lane) const { return slots_.data() + lane * stride_; }

  std::shared_ptr<const CompiledMachine> machine_;
  std::uint32_t stride_ = 0;  // doubles per lane slot block (>= 1)
  // Per dispatch entry: the handler's class byte (all the step pass reads
  // for a self-loop lane).
  std::vector<std::uint8_t> class_of_;
  std::vector<std::uint16_t> current_;  // [lane]
  std::vector<double> slots_;           // [lane * stride_ + slot]
  std::vector<double> stack_;           // bytecode-core scratch
  std::vector<std::uint64_t> traffic_;  // [entry] runtime counters (opt-in)
};

}  // namespace artemis

#endif  // SRC_MONITOR_COMPILED_BATCH_H_
