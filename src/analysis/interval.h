// Interval abstract domain for the FSM IR static analyzer.
//
// Three capabilities, shared by the analysis checks:
//   * interval evaluation of guard/body expressions over per-variable value
//     ranges (variables from their initial values + body updates, event
//     fields from their physical ranges, e.g. energy fraction in [0, 1]);
//   * tri-state truth of guards (definitely false / definitely true /
//     unknown), which drives the satisfiability and shadowing lints;
//   * decomposition of a guard into conjunctive atomic bounds
//     ("canonical-expr cmp constant"), which lets the determinism pass
//     *prove* two guards disjoint (i < N vs i >= N) instead of flagging
//     every multi-way dispatch as overlapping.
#ifndef SRC_ANALYSIS_INTERVAL_H_
#define SRC_ANALYSIS_INTERVAL_H_

#include <limits>
#include <map>
#include <optional>
#include <string>

#include "src/ir/expr.h"

namespace artemis {

// Closed interval over the extended reals; lo > hi encodes the empty set.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  static Interval Entire() { return Interval{}; }
  static Interval Point(double v) { return Interval{v, v}; }

  bool IsEmpty() const { return lo > hi; }
  bool IsPoint() const { return lo == hi; }
  bool Contains(double v) const { return lo <= v && v <= hi; }
  std::string ToString() const;  // "[0, +inf)" style, for diagnostics notes.
};

bool SameInterval(const Interval& a, const Interval& b);
Interval JoinIntervals(const Interval& a, const Interval& b);  // convex hull
Interval MeetIntervals(const Interval& a, const Interval& b);  // intersection

enum class TriBool : std::uint8_t { kFalse, kTrue, kUnknown };

TriBool TriAnd(TriBool a, TriBool b);
TriBool TriOr(TriBool a, TriBool b);
TriBool TriNot(TriBool a);

// Variable name -> value range.
using IntervalEnv = std::map<std::string, Interval>;

// The physical range of a MonitorEvent field (timestamps are non-negative,
// energy fraction lies in [0, 1], ...).
Interval EventFieldRange(EventField field);

// Range of `expr` under `env`; boolean subexpressions evaluate to subsets
// of [0, 1]. Unknown variables evaluate to the entire line (machines are
// validated before analysis, so this only happens for hand-built IR).
Interval EvalInterval(const Expr& expr, const IntervalEnv& env);

// Tri-state truth of `expr` used as a predicate under `env`.
TriBool EvalPredicate(const Expr& expr, const IntervalEnv& env);

// Value of `expr` when it contains no variables or event fields.
std::optional<double> EvalConstantExpr(const Expr& expr);

// Spec-style rendering for diagnostics ("(ts - endB) > 300000000"); unlike
// ExprToC this prints variables bare, without the generated-struct prefix.
std::string ExprToText(const Expr& expr);

// One atomic bound on a canonical expression, possibly open-ended.
struct Bound {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};

Bound IntersectBounds(const Bound& a, const Bound& b);
bool DisjointBounds(const Bound& a, const Bound& b);

// Decomposes `guard` into a conjunction of atomic bounds keyed by the
// canonical text of the compared expression. Returns false when some
// conjunct cannot be represented (disjunctions, !=, variable-to-variable
// comparisons); the bounds gathered so far remain valid constraints.
bool CollectGuardConstraints(const Expr& guard, std::map<std::string, Bound>* out);

// True when the two guards (nullptr = always true) can be *proven* never to
// hold simultaneously: some canonical expression is constrained to disjoint
// ranges by the two conjunctions.
bool ProvablyDisjoint(const ExprPtr& a, const ExprPtr& b);

// Narrows `env` with the variable-level bounds implied by `guard` (used
// before interpreting a transition body, so counters guarded by `i < N`
// stay bounded instead of widening to infinity).
IntervalEnv RefineByGuard(const IntervalEnv& env, const ExprPtr& guard);

}  // namespace artemis

#endif  // SRC_ANALYSIS_INTERVAL_H_
