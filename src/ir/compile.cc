#include "src/ir/compile.h"

#include <algorithm>
#include <map>
#include <utility>

namespace artemis {
namespace {

OpCode BinOpCode(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return OpCode::kAdd;
    case BinOp::kSub:
      return OpCode::kSub;
    case BinOp::kMul:
      return OpCode::kMul;
    case BinOp::kDiv:
      return OpCode::kDiv;
    case BinOp::kLt:
      return OpCode::kLt;
    case BinOp::kLe:
      return OpCode::kLe;
    case BinOp::kGt:
      return OpCode::kGt;
    case BinOp::kGe:
      return OpCode::kGe;
    case BinOp::kEq:
      return OpCode::kEq;
    case BinOp::kNe:
      return OpCode::kNe;
    case BinOp::kAnd:
      return OpCode::kAnd;
    case BinOp::kOr:
      return OpCode::kOr;
  }
  return OpCode::kAdd;
}

bool IsElapsedJump(OpCode op) {
  return op >= OpCode::kJumpIfNotElapsedLt && op <= OpCode::kJumpIfNotElapsedNe;
}

// Maps a kJumpIfNotElapsed* op to its commit-on-pass twin (same ordering).
OpCode GuardCommitFor(OpCode op) {
  return static_cast<OpCode>(static_cast<int>(OpCode::kGuardCommitElapsedLt) +
                             static_cast<int>(op) -
                             static_cast<int>(OpCode::kJumpIfNotElapsedLt));
}

// Emits postfix bytecode into one CompiledMachine, tracking the operand
// stack depth exactly (the emission order is the execution order).
class Compiler {
 public:
  explicit Compiler(const StateMachine& machine) : src_(machine) {}

  StatusOr<CompiledMachine> Run() {
    Status valid = src_.Validate();
    if (!valid.ok()) {
      return valid;
    }
    if (src_.states.size() > 0xFFFF) {
      return Status::FailedPrecondition("machine '" + src_.name + "': too many states");
    }
    m_.name = src_.name;
    m_.property_label = src_.property_label;
    m_.anchor_task = src_.anchor_task;
    m_.path_scope = src_.path_scope;
    m_.reset_on_path_restart = src_.reset_on_path_restart;

    for (const std::string& state : src_.states) {
      state_ids_.emplace(state, static_cast<std::uint16_t>(m_.state_names.size()));
      m_.state_names.push_back(state);
    }
    m_.initial = state_ids_.at(src_.initial);
    for (const auto& [var, value] : src_.variables) {
      slot_ids_.emplace(var, static_cast<std::uint32_t>(m_.var_names.size()));
      m_.var_names.push_back(var);
      m_.initial_slots.push_back(value);
      const auto declared = src_.slot_types.find(var);
      m_.slot_types.push_back(declared != src_.slot_types.end() ? declared->second
                                                                : SlotType::kCounter);
    }

    for (const Transition& t : src_.transitions) {
      edges_.push_back(Edge{state_ids_.at(t.from), state_ids_.at(t.to), t.trigger, t.task});
    }
    BuildDispatch();
    return std::move(m_);
  }

 private:
  std::uint32_t Pc() const { return static_cast<std::uint32_t>(m_.code.size()); }

  std::uint32_t Emit(OpCode op, std::uint32_t operand = 0) {
    m_.code.push_back(Instr{op, operand});
    return static_cast<std::uint32_t>(m_.code.size() - 1);
  }

  void Push() {
    ++depth_;
    if (depth_ > static_cast<int>(m_.max_stack)) {
      m_.max_stack = static_cast<std::uint32_t>(depth_);
    }
  }

  std::uint32_t InternConst(double value) {
    const auto it = const_ids_.find(value);
    if (it != const_ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(m_.const_pool.size());
    m_.const_pool.push_back(value);
    const_ids_.emplace(value, id);
    return id;
  }

  // True when `field` and `slot` both fit the packed 16/16 operand split
  // used by the fused superinstructions.
  static bool Packable(std::uint32_t hi, std::uint32_t lo) {
    return hi <= 0xFFFF && lo <= 0xFFFF;
  }

  void EmitExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst:
        Emit(OpCode::kPushConst, InternConst(e.constant));
        Push();
        break;
      case ExprKind::kVar:
        Emit(OpCode::kPushSlot, slot_ids_.at(e.var));
        Push();
        break;
      case ExprKind::kEventField:
        Emit(OpCode::kPushField, static_cast<std::uint32_t>(e.field));
        Push();
        break;
      case ExprKind::kBinary: {
        // Elapsed-time fusion: `event.field - var` is the shape of every
        // lowered time-window guard; collapse it to one dispatch.
        if (e.bin == BinOp::kSub && e.lhs->kind == ExprKind::kEventField &&
            e.rhs->kind == ExprKind::kVar) {
          const auto field = static_cast<std::uint32_t>(e.lhs->field);
          const std::uint32_t slot = slot_ids_.at(e.rhs->var);
          if (Packable(field, slot)) {
            Emit(OpCode::kFieldMinusSlot, (field << 16) | slot);
            Push();
            break;
          }
        }
        EmitExpr(*e.lhs);
        EmitExpr(*e.rhs);
        Emit(BinOpCode(e.bin));
        --depth_;
        break;
      }
      case ExprKind::kUnary:
        EmitExpr(*e.lhs);
        Emit(e.un == UnOp::kNot ? OpCode::kNot : OpCode::kNeg);
        break;
    }
  }

  void EmitStmts(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& stmt : body) {
      switch (stmt->kind) {
        case StmtKind::kAssign: {
          const std::uint32_t slot = slot_ids_.at(stmt->var);
          const Expr& v = *stmt->value;
          // `var = event.field` — one dispatch instead of push+store.
          if (v.kind == ExprKind::kEventField &&
              Packable(static_cast<std::uint32_t>(v.field), slot)) {
            Emit(OpCode::kStoreField, (static_cast<std::uint32_t>(v.field) << 16) | slot);
            break;
          }
          // `var = var + c` / `var = c + var` — the lowered counter bump.
          if (v.kind == ExprKind::kBinary && v.bin == BinOp::kAdd) {
            const Expr* self = nullptr;
            const Expr* constant = nullptr;
            if (v.lhs->kind == ExprKind::kVar && v.rhs->kind == ExprKind::kConst) {
              self = v.lhs.get();
              constant = v.rhs.get();
            } else if (v.lhs->kind == ExprKind::kConst && v.rhs->kind == ExprKind::kVar) {
              constant = v.lhs.get();
              self = v.rhs.get();
            }
            if (self != nullptr && self->var == stmt->var) {
              const std::uint32_t cid = InternConst(constant->constant);
              if (Packable(cid, slot)) {
                Emit(OpCode::kAddConstSlot, (cid << 16) | slot);
                break;
              }
            }
          }
          EmitExpr(v);
          Emit(OpCode::kStoreSlot, slot);
          --depth_;
          break;
        }
        case StmtKind::kIf: {
          const std::uint32_t jz = EmitCondJump(*stmt->cond);
          EmitStmts(stmt->then_body);
          if (stmt->else_body.empty()) {
            m_.code[jz].operand = Pc();
          } else {
            const std::uint32_t jmp = Emit(OpCode::kJump);
            m_.code[jz].operand = Pc();
            EmitStmts(stmt->else_body);
            m_.code[jmp].operand = Pc();
          }
          break;
        }
        case StmtKind::kFail: {
          const auto id = static_cast<std::uint32_t>(m_.fail_pool.size());
          m_.fail_pool.push_back(FailRecord{stmt->action, stmt->target_path, stmt->property});
          Emit(OpCode::kFail, id);
          break;
        }
      }
    }
  }

  // Emits `cond` followed by a conditional jump taken when it is false,
  // returning the jump's index for later patching. When the expression's
  // final op is a comparison / and / or, the jump is fused into it
  // (kJumpIfNot*): one dispatch pops both operands and branches directly.
  std::uint32_t EmitCondJump(const Expr& cond) {
    // Whole-guard fusion: `event.field - var <cmp> const` becomes one
    // three-word kJumpIfNotElapsed* instruction, no stack traffic at all.
    if (cond.kind == ExprKind::kBinary && cond.rhs->kind == ExprKind::kConst &&
        cond.lhs->kind == ExprKind::kBinary && cond.lhs->bin == BinOp::kSub &&
        cond.lhs->lhs->kind == ExprKind::kEventField &&
        cond.lhs->rhs->kind == ExprKind::kVar) {
      OpCode elapsed;
      switch (cond.bin) {
        case BinOp::kLt:
          elapsed = OpCode::kJumpIfNotElapsedLt;
          break;
        case BinOp::kLe:
          elapsed = OpCode::kJumpIfNotElapsedLe;
          break;
        case BinOp::kGt:
          elapsed = OpCode::kJumpIfNotElapsedGt;
          break;
        case BinOp::kGe:
          elapsed = OpCode::kJumpIfNotElapsedGe;
          break;
        case BinOp::kEq:
          elapsed = OpCode::kJumpIfNotElapsedEq;
          break;
        case BinOp::kNe:
          elapsed = OpCode::kJumpIfNotElapsedNe;
          break;
        default:
          elapsed = OpCode::kExtend;  // Not a comparison; no fusion.
          break;
      }
      const auto field = static_cast<std::uint32_t>(cond.lhs->lhs->field);
      const std::uint32_t slot = slot_ids_.at(cond.lhs->rhs->var);
      if (elapsed != OpCode::kExtend && Packable(field, slot)) {
        Emit(elapsed, (field << 16) | slot);
        Emit(OpCode::kExtend, InternConst(cond.rhs->constant));
        // The target word is returned for the caller to patch.
        return Emit(OpCode::kExtend, 0);
      }
    }
    EmitExpr(cond);
    OpCode fused;
    switch (m_.code.back().op) {
      case OpCode::kLt:
        fused = OpCode::kJumpIfNotLt;
        break;
      case OpCode::kLe:
        fused = OpCode::kJumpIfNotLe;
        break;
      case OpCode::kGt:
        fused = OpCode::kJumpIfNotGt;
        break;
      case OpCode::kGe:
        fused = OpCode::kJumpIfNotGe;
        break;
      case OpCode::kEq:
        fused = OpCode::kJumpIfNotEq;
        break;
      case OpCode::kNe:
        fused = OpCode::kJumpIfNotNe;
        break;
      case OpCode::kAnd:
        fused = OpCode::kJumpIfNotAnd;
        break;
      case OpCode::kOr:
        fused = OpCode::kJumpIfNotOr;
        break;
      default: {
        const std::uint32_t jz = Emit(OpCode::kJumpIfZero);
        --depth_;
        return jz;
      }
    }
    // The binary op popped two and pushed one; the fused jump pops both
    // and pushes nothing, so account for one more pop.
    m_.code.back() = Instr{fused, 0};
    --depth_;
    return static_cast<std::uint32_t>(m_.code.size() - 1);
  }

  // Emits one handler program: every candidate transition inlined in
  // declaration order as
  //   <guard>  jump-if-false next; <body>  commit to
  // falling through to kNoMatch (implicit self-loop) if none fires.
  // Empty candidate lists share a single cached kNoMatch program.
  std::uint32_t EmitHandler(const std::vector<std::uint32_t>& candidates) {
    if (candidates.empty()) {
      if (empty_handler_ == kNoProgram) {
        empty_handler_ = Emit(OpCode::kNoMatch);
      }
      return empty_handler_;
    }
    const std::uint32_t entry = Pc();
    for (const std::uint32_t i : candidates) {
      const Transition& t = src_.transitions[i];
      depth_ = 0;
      std::uint32_t jz = kNoProgram;
      const std::uint32_t guard_at = Pc();
      if (t.guard != nullptr) {
        jz = EmitCondJump(*t.guard);
      }
      const std::uint32_t body_at = Pc();
      EmitStmts(t.body);
      const std::uint32_t commit_at = Emit(OpCode::kCommit, edges_[i].to);
      // Whole-transition peepholes: fold the commit into the preceding
      // instruction so the two dominant transition shapes run in a single
      // dispatch. Word counts are unchanged, so no patch target moves.
      const bool elapsed_guard =
          jz != kNoProgram && jz == guard_at + 2 && IsElapsedJump(m_.code[guard_at].op);
      if (elapsed_guard && body_at == commit_at) {
        // [jne_*][const][target][commit] -> [gc_*][const][target][state]
        m_.code[guard_at].op = GuardCommitFor(m_.code[guard_at].op);
        m_.code[commit_at].op = OpCode::kExtend;
      } else if (commit_at > body_at && m_.code[commit_at - 1].op == OpCode::kStoreField &&
                 t.body.back()->kind == StmtKind::kAssign) {
        // [store_field][commit] -> [store_field_commit][state]. Only safe
        // when the trailing kStoreField is the body's last *top-level*
        // statement: jump targets inside the body always land at statement
        // starts, so none can target the rewritten commit word.
        m_.code[commit_at - 1].op = OpCode::kStoreFieldCommit;
        m_.code[commit_at].op = OpCode::kExtend;
      }
      if (jz != kNoProgram) {
        m_.code[jz].operand = Pc();
      }
    }
    Emit(OpCode::kNoMatch);
    return entry;
  }

  static EventKind TriggerEventKind(TriggerKind trigger) {
    return trigger == TriggerKind::kStartTask ? EventKind::kStartTask : EventKind::kEndTask;
  }

  // Emits every state's handlers and fills the dense dispatch table (each
  // (state, kind, task) entry holds the state's handler for that pair, or
  // its kAnyEvent fallback) and the per-column reacts table.
  void BuildDispatch() {
    m_.max_task = 0;
    for (const Edge& t : edges_) {
      if (t.trigger != TriggerKind::kAnyEvent && t.task > m_.max_task) {
        m_.max_task = t.task;
      }
    }
    const std::uint32_t span = m_.max_task + 2;
    m_.dispatch.assign(m_.state_names.size() * 2u * span, kNoProgram);
    m_.reacts.assign(2u * span, 0);
    for (std::uint16_t s = 0; s < m_.state_names.size(); ++s) {
      // Transitions leaving `s`, in declaration order.
      std::vector<std::uint32_t> local;
      for (std::uint32_t i = 0; i < edges_.size(); ++i) {
        if (edges_[i].from == s) {
          local.push_back(i);
        }
      }
      // One handler per distinct (kind, task) a start/end trigger names, as
      // (dispatch entry, handler pc).
      std::vector<std::pair<std::uint32_t, std::uint32_t>> handlers;
      for (const std::uint32_t i : local) {
        const Edge& t = edges_[i];
        if (t.trigger == TriggerKind::kAnyEvent) {
          continue;
        }
        const EventKind kind = TriggerEventKind(t.trigger);
        const std::uint32_t entry = m_.Entry(s, kind, t.task);
        if (std::any_of(handlers.begin(), handlers.end(),
                        [entry](const auto& handler) { return handler.first == entry; })) {
          continue;
        }
        std::vector<std::uint32_t> candidates;
        for (const std::uint32_t j : local) {
          const Edge& c = edges_[j];
          if (c.trigger == TriggerKind::kAnyEvent ||
              (TriggerEventKind(c.trigger) == kind && c.task == t.task)) {
            candidates.push_back(j);
          }
        }
        handlers.emplace_back(entry, EmitHandler(candidates));
      }
      // Fallback for events no handler covers: only kAnyEvent can match.
      std::vector<std::uint32_t> any_candidates;
      for (const std::uint32_t j : local) {
        if (edges_[j].trigger == TriggerKind::kAnyEvent) {
          any_candidates.push_back(j);
        }
      }
      const auto row = m_.dispatch.begin() + s * 2u * span;
      std::fill(row, row + 2u * span, EmitHandler(any_candidates));
      for (const auto& [entry, pc] : handlers) {
        m_.dispatch[entry] = pc;
      }
      for (std::uint32_t col = 0; col < 2u * span; ++col) {
        if (m_.code[row[col]].op != OpCode::kNoMatch) {
          m_.reacts[col] = 1;
        }
      }
    }
  }

  // A source transition with its states interned.
  struct Edge {
    std::uint16_t from;
    std::uint16_t to;
    TriggerKind trigger;
    TaskId task;
  };

  const StateMachine& src_;
  CompiledMachine m_;
  std::vector<Edge> edges_;  // index-aligned with src_.transitions
  std::map<std::string, std::uint16_t> state_ids_;
  std::map<std::string, std::uint32_t> slot_ids_;
  std::map<double, std::uint32_t> const_ids_;
  int depth_ = 0;
  std::uint32_t empty_handler_ = kNoProgram;
};

}  // namespace

StatusOr<CompiledMachine> CompileStateMachine(const StateMachine& machine) {
  return Compiler(machine).Run();
}

}  // namespace artemis
