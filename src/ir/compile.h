// Model-to-bytecode compilation: flattens an intermediate-language state
// machine (src/ir/state_machine.h) into a contiguous, slot-indexed form the
// CompiledMonitor backend executes without any string comparison, map
// lookup, or pointer chasing per event:
//
//  * state names are interned to dense uint16_t ids;
//  * machine variables are interned to slot indices, so the execution
//    environment is a flat std::vector<double> instead of a VarEnv map;
//  * every guard Expr and body Stmt tree is flattened into one shared
//    postfix bytecode array (`code`) with precomputed slot / event-field /
//    constant-pool operands;
//  * a per-(state, trigger-kind, task) dispatch index lets Step jump
//    straight to candidate transitions instead of scanning the whole
//    transition list.
//
// The compiled form is semantically identical to the interpreter (the
// differential fuzz test in tests/compiled_monitor_test.cc enforces this);
// see docs/monitor-backends.md for the layout and measured speedups.
#ifndef SRC_IR_COMPILE_H_
#define SRC_IR_COMPILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ir/state_machine.h"

namespace artemis {

// One postfix bytecode operation. Arithmetic/comparison/logical ops pop two
// values and push one; kNot/kNeg pop one and push one. kAnd/kOr are
// non-short-circuit: expression evaluation is side-effect free, so eager
// evaluation of both operands is observationally identical to the
// interpreter's short-circuit (and branch-free, which is faster here).
//
// Two families of superinstructions are peephole-fused at compile time:
//  * kJumpIfNot* — a comparison (or and/or) immediately feeding a
//    conditional jump, the dominant guard shape: one dispatch pops both
//    operands and branches directly instead of materializing a 0.0/1.0
//    and re-testing it;
//  * kStoreField / kFieldMinusSlot / kAddConstSlot — the recurring lowered
//    idioms `slot = event.field`, `event.field - slot` (elapsed-time
//    guards) and `slot = slot + const` (counter bumps), each collapsed to
//    one dispatch with both indices packed into the operand
//    (high 16 bits: field or const-pool index; low 16 bits: slot).
enum class OpCode : std::uint8_t {
  kPushConst,       // operand: index into const_pool
  kPushSlot,        // operand: variable slot
  kPushField,       // operand: EventField
  kAdd,
  kSub,
  kMul,
  kDiv,  // x/0 == 0.0, matching EvalExpr
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
  kNot,
  kNeg,
  kStoreSlot,       // operand: variable slot; pops one value
  kStoreField,      // fused `slot = event.field`; operand: field<<16 | slot
  kFieldMinusSlot,  // fused push of `event.field - slot`; same packing
  kAddConstSlot,    // fused `slot += const_pool[i]`; operand: i<<16 | slot
  kJumpIfZero,      // operand: absolute pc in `code`; pops one value
  kJump,            // operand: absolute pc in `code`
  kJumpIfNotLt,     // fused compare+branch: pop b, a; jump unless a < b
  kJumpIfNotLe,
  kJumpIfNotGt,
  kJumpIfNotGe,
  kJumpIfNotEq,
  kJumpIfNotNe,
  kJumpIfNotAnd,    // pop b, a; jump unless (a != 0 && b != 0)
  kJumpIfNotOr,     // pop b, a; jump unless (a != 0 || b != 0)
  // Whole-guard fusion of `event.field - var <cmp> const` — the canonical
  // time-window guard (MITD / MSS / maxDuration) — into one dispatch.
  // Three words: [op, field<<16|slot] [kExtend, const-pool index]
  // [kExtend, jump target]; stack untouched.
  kJumpIfNotElapsedLt,
  kJumpIfNotElapsedLe,
  kJumpIfNotElapsedGt,
  kJumpIfNotElapsedGe,
  kJumpIfNotElapsedEq,
  kJumpIfNotElapsedNe,
  // Whole-transition fusions: the two commonest handler shapes collapse to
  // a single dispatch per event.
  //  * kStoreFieldCommit — `slot = event.field` body + commit. Two words:
  //    [op, field<<16|slot] [kExtend, destination state].
  //  * kGuardCommitElapsed* — elapsed guard with an empty body: jump away
  //    on guard failure, else commit. Four words: [op, field<<16|slot]
  //    [kExtend, const-pool index] [kExtend, jump target]
  //    [kExtend, destination state]. Same order as kJumpIfNotElapsed*.
  kStoreFieldCommit,
  kGuardCommitElapsedLt,
  kGuardCommitElapsedLe,
  kGuardCommitElapsedGt,
  kGuardCommitElapsedGe,
  kGuardCommitElapsedEq,
  kGuardCommitElapsedNe,
  kExtend,          // operand word of a multi-word instruction; never dispatched
  kFail,            // operand: index into fail_pool
  kCommit,          // operand: destination state id; commit + return handled
  kNoMatch,         // end of a handler: nothing fired, implicit self-loop
};

struct Instr {
  OpCode op = OpCode::kNoMatch;
  std::uint32_t operand = 0;
};

// Verdict payload of one lowered kFail statement.
struct FailRecord {
  ActionType action = ActionType::kNone;
  PathId target_path = kNoPath;
  std::string property;
};

// Sentinel program counter: "no guard" / "empty body".
inline constexpr std::uint32_t kNoProgram = 0xFFFFFFFFu;

struct CompiledMachine {
  std::string name;
  std::string property_label;

  // State interning: id == index into state_names; `initial` is an id.
  std::vector<std::string> state_names;
  std::uint16_t initial = 0;

  // Variable interning: slot == index into var_names / initial_slots.
  std::vector<std::string> var_names;
  std::vector<double> initial_slots;
  // Declared type per slot, index-aligned with var_names; the hot-swap
  // migration planner (src/swap) refuses to carry a value across slots of
  // different types (ART015).
  std::vector<SlotType> slot_types;

  // All handler programs, concatenated. A handler program inlines every
  // candidate transition in declaration order:
  //   <guard>  jump-if-false next; <body>  commit to
  // and ends with kNoMatch if no candidate fired (implicit self-loop).
  std::vector<Instr> code;
  std::vector<double> const_pool;
  std::vector<FailRecord> fail_pool;
  // Max operand-stack depth over all programs (for one-time allocation).
  std::uint32_t max_stack = 0;

  // ---- dispatch index -------------------------------------------------
  // Each state has one handler per exact (event kind, task id) pair that a
  // start/end trigger leaving it names. The handler inlines the pair's
  // candidate transitions in declaration order (interleaving kAnyEvent
  // transitions), so running it is equivalent to scanning the whole
  // transition list. Events whose (kind, task) has no handler of its own
  // can only match kAnyEvent transitions and fall back to `any_handler`.
  std::vector<std::uint32_t> any_handler;  // indexed by state id; a pc

  // Dense O(1) dispatch: handler pc for every (state, kind, task) with
  // task <= max_task, any_handler filling the pairs without a handler.
  // Laid out [state][kind][task] so one multiply-add reaches the entry.
  std::uint32_t max_task = 0;
  std::vector<std::uint32_t> dispatch;

  // Runtime policy knobs carried over from the StateMachine.
  TaskId anchor_task = kInvalidTask;
  PathId path_scope = kNoPath;
  bool reset_on_path_restart = false;

  // Whether an event of `kind` on `task` can fire a transition: some
  // state's handler for it is more than the shared kNoMatch program (a
  // handler with candidates never starts with kNoMatch).
  bool Reacts(EventKind kind, TaskId task) const;

  // Entry pc of the handler program for (state, event kind, task).
  inline std::uint32_t HandlerFor(std::uint16_t state, EventKind kind, TaskId task) const {
    const auto t = static_cast<std::uint32_t>(task);
    if (t > max_task) {
      return any_handler[state];
    }
    const std::uint32_t row =
        (static_cast<std::uint32_t>(state) * 2u + static_cast<std::uint32_t>(kind));
    return dispatch[row * (max_task + 1u) + t];
  }
};

// Validates and compiles `machine`. Fails on machines that exceed the
// bytecode's index ranges (65k states/slots, 4G instructions) or that fail
// StateMachine::Validate().
StatusOr<CompiledMachine> CompileStateMachine(const StateMachine& machine);

}  // namespace artemis

#endif  // SRC_IR_COMPILE_H_
