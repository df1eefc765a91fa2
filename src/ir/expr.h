// Expression and statement mini-IR used inside intermediate-language state
// machines (Section 3.3): guards are boolean expressions over machine
// variables and event fields; transition bodies contain assignments,
// if-then-else, and failure signals.
#ifndef SRC_IR_EXPR_H_
#define SRC_IR_EXPR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/checker.h"

namespace artemis {

enum class ExprKind : std::uint8_t { kConst, kVar, kEventField, kBinary, kUnary };

// Fields of the MonitorEvent observable from guards/bodies. `ts` in
// Figure 7 is kTimestamp.
enum class EventField : std::uint8_t {
  kTimestamp,
  kDepData,
  kHasDepData,
  kEnergyFraction,
  kPath,
};

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kLt, kLe, kGt, kGe, kEq, kNe, kAnd, kOr,
};

enum class UnOp : std::uint8_t { kNot, kNeg };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  ExprKind kind = ExprKind::kConst;
  double constant = 0.0;        // kConst
  std::string var;              // kVar
  EventField field = EventField::kTimestamp;  // kEventField
  BinOp bin = BinOp::kAdd;      // kBinary
  UnOp un = UnOp::kNot;         // kUnary
  ExprPtr lhs, rhs;             // children
};

// Builders.
ExprPtr Const(double value);
ExprPtr Var(std::string name);
ExprPtr Field(EventField field);
ExprPtr Bin(BinOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Un(UnOp op, ExprPtr operand);

// All numeric state lives in doubles; booleans are 0.0 / 1.0. Timestamps in
// microsecond ticks stay exact below 2^53 us (~285 simulated years).
using VarEnv = std::map<std::string, double>;

// Evaluates `expr` against machine variables and the current event.
// Unknown variables read as 0 (machines are validated before execution).
double EvalExpr(const Expr& expr, const VarEnv& env, const MonitorEvent& event);

// Renders the expression in C syntax (shared by the C code generator, the
// DOT generator, and debug output).
std::string ExprToC(const Expr& expr);

// ---- statements --------------------------------------------------------

enum class StmtKind : std::uint8_t { kAssign, kIf, kFail };

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

struct Stmt {
  StmtKind kind = StmtKind::kAssign;
  // kAssign
  std::string var;
  ExprPtr value;
  // kIf
  ExprPtr cond;
  std::vector<StmtPtr> then_body;
  std::vector<StmtPtr> else_body;
  // kFail
  ActionType action = ActionType::kNone;
  PathId target_path = kNoPath;
  std::string property;  // label reported with the violation
};

StmtPtr Assign(std::string var, ExprPtr value);
StmtPtr If(ExprPtr cond, std::vector<StmtPtr> then_body, std::vector<StmtPtr> else_body = {});
StmtPtr Fail(ActionType action, PathId target_path, std::string property);

// Statement execution: mutates `env`; if a kFail runs, fills `verdict`
// (last failure wins within one body) and returns true.
bool ExecStmts(const std::vector<StmtPtr>& body, VarEnv* env, const MonitorEvent& event,
               MonitorVerdict* verdict);

// Source spelling of a binary operator ("+", "<=", "&&", ...), shared by
// the C and text renderings.
const char* BinOpToken(BinOp op);

// Free variables referenced by an expression / statement list (for
// validation).
void CollectVars(const Expr& expr, std::map<std::string, int>* vars);
void CollectVars(const std::vector<StmtPtr>& body, std::map<std::string, int>* vars);

}  // namespace artemis

#endif  // SRC_IR_EXPR_H_
