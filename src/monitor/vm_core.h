// Shared bytecode-VM core for the compiled monitor backend.
//
// The handler interpreter used to live inside CompiledMonitor; it is a
// free function here so two execution engines can share one definition:
//
//  * CompiledMonitor (src/monitor/compiled.h) — the scalar per-device
//    path, one state/slot/stack block per monitor object;
//  * BatchCompiledMonitor (src/monitor/compiled_batch.h) — the fleet
//    batch path, which steps N lanes of the same machine and only falls
//    back to this general interpreter for handler programs its micro-op
//    fast path cannot summarize.
//
// The core is string-free: a failure reports the fail_pool index instead
// of copying the FailRecord's strings, so batch lanes pay nothing for the
// (rare) verdict materialization. Scalar callers resolve the index to a
// MonitorVerdict after the fact. Semantics are pinned to
// InterpretedMonitor by the differential fuzz test in
// tests/compiled_monitor_test.cc.
//
// This interpreter is the semantic reference for the batch engine's class
// kernels (src/monitor/batch_kernels.h): every fused kernel must produce
// bit-identical slot doubles and state transitions to stepping the same
// handler program here, including IEEE-754 edge cases (NaN guard
// comparisons evaluate false, signed zeros compare equal).
// That contract is what lets a kernel lane skip the bytecode entirely,
// and it is why kernels use only operations with exact IEEE semantics
// (copies, subtraction, ordered comparison) — never reassociated
// arithmetic. Pinned by BatchClassFuzzTest.
#ifndef SRC_MONITOR_VM_CORE_H_
#define SRC_MONITOR_VM_CORE_H_

#include <cstdint>

#include "src/ir/compile.h"
#include "src/kernel/checker.h"

namespace artemis {

// The VM body is large, so compilers refuse to inline it on their own —
// but inlining it into a sweep loop is exactly the point of defining it in
// the header (the caller keeps the event and verdict in registers).
#if defined(__GNUC__) || defined(__clang__)
#define ARTEMIS_VM_INLINE inline __attribute__((always_inline))
#else
#define ARTEMIS_VM_INLINE inline
#endif

// Failure record reference produced by a kFail: an index into the owning
// machine's fail_pool. Valid only when RunCompiledHandler returned true.
struct VmFailure {
  std::uint32_t fail_index = 0;
};

ARTEMIS_VM_INLINE double VmFieldValue(EventField field, const MonitorEvent& event) {
  switch (field) {
    case EventField::kTimestamp:
      return static_cast<double>(event.timestamp);
    case EventField::kDepData:
      return event.dep_data;
    case EventField::kHasDepData:
      return event.has_dep_data ? 1.0 : 0.0;
    case EventField::kEnergyFraction:
      return event.energy_fraction;
    case EventField::kPath:
      return static_cast<double>(event.path);
  }
  return 0.0;
}

// Runs the handler program at `pc` to completion: tries each inlined
// candidate transition in order, commits the first whose guard passes
// (writing the destination state through `current`), and returns true if
// its body executed a kFail (the last kFail's pool index lands in
// `failure`). `slots` is the machine's variable block for this execution
// lane; `stack` is caller-provided scratch of at least machine.max_stack.
//
// Dispatch strategy: a plain for(;;)+switch loop. A threaded-dispatch
// variant (GNU labels-as-values) was measured and rejected: it prevents
// inlining into devirtualized callers and benchmarked ~25% slower than
// the switch on the health-app hot loop.
ARTEMIS_VM_INLINE bool RunCompiledHandler(const CompiledMachine& machine, std::uint32_t pc,
                                          const MonitorEvent& event, std::uint16_t* current,
                                          double* slots, double* stack, VmFailure* failure) {
  const Instr* const code = machine.code.data();
  const double* const consts = machine.const_pool.data();
  double* sp = stack;  // points one past the top of stack
  bool failed = false;
  for (;;) {
    const Instr in = code[pc++];
    switch (in.op) {
      case OpCode::kPushConst:
        *sp++ = consts[in.operand];
        break;
      case OpCode::kPushSlot:
        *sp++ = slots[in.operand];
        break;
      case OpCode::kPushField:
        *sp++ = VmFieldValue(static_cast<EventField>(in.operand), event);
        break;
      case OpCode::kAdd:
        sp[-2] = sp[-2] + sp[-1];
        --sp;
        break;
      case OpCode::kSub:
        sp[-2] = sp[-2] - sp[-1];
        --sp;
        break;
      case OpCode::kMul:
        sp[-2] = sp[-2] * sp[-1];
        --sp;
        break;
      case OpCode::kDiv:
        sp[-2] = sp[-1] != 0.0 ? sp[-2] / sp[-1] : 0.0;
        --sp;
        break;
      case OpCode::kLt:
        sp[-2] = sp[-2] < sp[-1] ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kLe:
        sp[-2] = sp[-2] <= sp[-1] ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kGt:
        sp[-2] = sp[-2] > sp[-1] ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kGe:
        sp[-2] = sp[-2] >= sp[-1] ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kEq:
        sp[-2] = sp[-2] == sp[-1] ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kNe:
        sp[-2] = sp[-2] != sp[-1] ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kAnd:
        sp[-2] = (sp[-2] != 0.0 && sp[-1] != 0.0) ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kOr:
        sp[-2] = (sp[-2] != 0.0 || sp[-1] != 0.0) ? 1.0 : 0.0;
        --sp;
        break;
      case OpCode::kNot:
        sp[-1] = sp[-1] == 0.0 ? 1.0 : 0.0;
        break;
      case OpCode::kNeg:
        sp[-1] = -sp[-1];
        break;
      case OpCode::kStoreSlot:
        slots[in.operand] = *--sp;
        break;
      case OpCode::kStoreField:
        slots[in.operand & 0xFFFF] =
            VmFieldValue(static_cast<EventField>(in.operand >> 16), event);
        break;
      case OpCode::kFieldMinusSlot:
        *sp++ = VmFieldValue(static_cast<EventField>(in.operand >> 16), event) -
                slots[in.operand & 0xFFFF];
        break;
      case OpCode::kAddConstSlot:
        slots[in.operand & 0xFFFF] += consts[in.operand >> 16];
        break;
      case OpCode::kJumpIfZero:
        if (*--sp == 0.0) {
          pc = in.operand;
        }
        break;
      case OpCode::kJump:
        pc = in.operand;
        break;
      case OpCode::kJumpIfNotLt:
        sp -= 2;
        if (!(sp[0] < sp[1])) {
          pc = in.operand;
        }
        break;
      case OpCode::kJumpIfNotLe:
        sp -= 2;
        if (!(sp[0] <= sp[1])) {
          pc = in.operand;
        }
        break;
      case OpCode::kJumpIfNotGt:
        sp -= 2;
        if (!(sp[0] > sp[1])) {
          pc = in.operand;
        }
        break;
      case OpCode::kJumpIfNotGe:
        sp -= 2;
        if (!(sp[0] >= sp[1])) {
          pc = in.operand;
        }
        break;
      case OpCode::kJumpIfNotEq:
        sp -= 2;
        if (!(sp[0] == sp[1])) {
          pc = in.operand;
        }
        break;
      case OpCode::kJumpIfNotNe:
        sp -= 2;
        if (!(sp[0] != sp[1])) {
          pc = in.operand;
        }
        break;
      case OpCode::kJumpIfNotAnd:
        sp -= 2;
        if (sp[0] == 0.0 || sp[1] == 0.0) {
          pc = in.operand;
        }
        break;
      case OpCode::kJumpIfNotOr:
        sp -= 2;
        if (sp[0] == 0.0 && sp[1] == 0.0) {
          pc = in.operand;
        }
        break;
      // Three-word instructions: the first word packs field/slot, the two
      // extension words hold the const-pool index and the jump target.
#define ARTEMIS_VM_ELAPSED_CASE(name, cmp)                                             \
  case OpCode::name: {                                                                 \
    const double a = VmFieldValue(static_cast<EventField>(in.operand >> 16), event) -  \
                     slots[in.operand & 0xFFFF];                                       \
    if (!(a cmp consts[code[pc].operand])) {                                           \
      pc = code[pc + 1].operand;                                                       \
    } else {                                                                           \
      pc += 2;                                                                         \
    }                                                                                  \
    break;                                                                             \
  }
      ARTEMIS_VM_ELAPSED_CASE(kJumpIfNotElapsedLt, <)
      ARTEMIS_VM_ELAPSED_CASE(kJumpIfNotElapsedLe, <=)
      ARTEMIS_VM_ELAPSED_CASE(kJumpIfNotElapsedGt, >)
      ARTEMIS_VM_ELAPSED_CASE(kJumpIfNotElapsedGe, >=)
      ARTEMIS_VM_ELAPSED_CASE(kJumpIfNotElapsedEq, ==)
      ARTEMIS_VM_ELAPSED_CASE(kJumpIfNotElapsedNe, !=)
#undef ARTEMIS_VM_ELAPSED_CASE
      // Whole-transition fusions: one dispatch handles the entire event.
      case OpCode::kStoreFieldCommit:
        slots[in.operand & 0xFFFF] =
            VmFieldValue(static_cast<EventField>(in.operand >> 16), event);
        *current = static_cast<std::uint16_t>(code[pc].operand);
        return failed;
// Four words: [op, field<<16|slot] [const-pool index] [jump target]
// [destination state]. Guard failure jumps to the next candidate; guard
// success commits immediately (the fused body is empty by construction).
#define ARTEMIS_VM_GUARD_COMMIT_CASE(name, cmp)                                        \
  case OpCode::name: {                                                                 \
    const double a = VmFieldValue(static_cast<EventField>(in.operand >> 16), event) -  \
                     slots[in.operand & 0xFFFF];                                       \
    if (!(a cmp consts[code[pc].operand])) {                                           \
      pc = code[pc + 1].operand;                                                       \
      break;                                                                           \
    }                                                                                  \
    *current = static_cast<std::uint16_t>(code[pc + 2].operand);                       \
    return failed;                                                                     \
  }
      ARTEMIS_VM_GUARD_COMMIT_CASE(kGuardCommitElapsedLt, <)
      ARTEMIS_VM_GUARD_COMMIT_CASE(kGuardCommitElapsedLe, <=)
      ARTEMIS_VM_GUARD_COMMIT_CASE(kGuardCommitElapsedGt, >)
      ARTEMIS_VM_GUARD_COMMIT_CASE(kGuardCommitElapsedGe, >=)
      ARTEMIS_VM_GUARD_COMMIT_CASE(kGuardCommitElapsedEq, ==)
      ARTEMIS_VM_GUARD_COMMIT_CASE(kGuardCommitElapsedNe, !=)
#undef ARTEMIS_VM_GUARD_COMMIT_CASE
      case OpCode::kExtend:
        break;  // Operand word; only reached if jumped over, never dispatched.
      case OpCode::kFail:
        failure->fail_index = in.operand;
        failed = true;  // Last failure wins, as in ExecStmts.
        break;
      case OpCode::kCommit:
        *current = static_cast<std::uint16_t>(in.operand);
        return failed;
      case OpCode::kNoMatch:
        return false;  // Implicit self-transition.
    }
  }
}

}  // namespace artemis

#endif  // SRC_MONITOR_VM_CORE_H_
