#include "src/analysis/analyzer.h"

#include <deque>
#include <limits>
#include <sstream>

#include "src/analysis/system_passes.h"

namespace artemis {
namespace {

// Iterations of plain fixpoint before endpoints that still move are widened
// to infinity, and the hard cap after widening.
constexpr int kWidenAfter = 8;
constexpr int kMaxIterations = 32;

std::string TriggerText(const Transition& t, const AppGraph& graph) {
  if (t.trigger == TriggerKind::kAnyEvent) return "any event";
  std::string out = t.trigger == TriggerKind::kStartTask ? "start(" : "end(";
  out += t.task < graph.task_count() ? graph.TaskName(t.task) : "?";
  out += ")";
  return out;
}

std::string ScopeText(const StateMachine& m, const MachineFacts& facts,
                      const AppGraph& graph) {
  std::ostringstream out;
  if (m.path_scope != kNoPath) {
    out << "machine is scoped to path " << m.path_scope << "; its";
  } else {
    out << "the machine's";
  }
  out << " event scope is {";
  bool first = true;
  for (const TaskId task : facts.scope_tasks) {
    out << (first ? "" : ", ") << graph.TaskName(task);
    first = false;
  }
  out << "}";
  return out.str();
}

// Ranges of the variables `expr` reads, for satisfiability notes.
std::string GuardRangesText(const Expr& expr, const IntervalEnv& env) {
  std::map<std::string, int> vars;
  CollectVars(expr, &vars);
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, count] : vars) {
    (void)count;
    const auto it = env.find(name);
    if (it == env.end()) continue;
    out << (first ? "" : ", ") << name << " in " << it->second.ToString();
    first = false;
  }
  return out.str();
}

// Can events matching transition `a` also match transition `b`? kAnyEvent
// matches every task boundary, so it intersects everything.
bool TriggersIntersect(const Transition& a, const Transition& b) {
  if (a.trigger == TriggerKind::kAnyEvent || b.trigger == TriggerKind::kAnyEvent) return true;
  return a.trigger == b.trigger && a.task == b.task;
}

// Does every event matching `later` also match `earlier`? (Used for
// shadowing: a first-match dispatcher consults `earlier` first.)
bool TriggerCovers(const Transition& earlier, const Transition& later) {
  if (earlier.trigger == TriggerKind::kAnyEvent) return true;
  return earlier.trigger == later.trigger && earlier.task == later.task;
}

IntervalEnv JoinEnvs(const IntervalEnv& a, const IntervalEnv& b) {
  IntervalEnv out = a;
  for (const auto& [name, range] : b) {
    const auto it = out.find(name);
    if (it == out.end()) {
      out[name] = range;
    } else {
      it->second = JoinIntervals(it->second, range);
    }
  }
  return out;
}

bool SameEnv(const IntervalEnv& a, const IntervalEnv& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, range] : a) {
    const auto it = b.find(name);
    if (it == b.end() || !SameInterval(range, it->second)) return false;
  }
  return true;
}

// Abstract execution of a transition body over variable ranges.
void EvalStmtsAbstract(const std::vector<StmtPtr>& body, IntervalEnv* env) {
  for (const StmtPtr& s : body) {
    switch (s->kind) {
      case StmtKind::kAssign:
        (*env)[s->var] = EvalInterval(*s->value, *env);
        break;
      case StmtKind::kIf: {
        const TriBool truth = EvalPredicate(*s->cond, *env);
        IntervalEnv then_env = RefineByGuard(*env, s->cond);
        IntervalEnv else_env = *env;
        EvalStmtsAbstract(s->then_body, &then_env);
        EvalStmtsAbstract(s->else_body, &else_env);
        if (truth == TriBool::kTrue) {
          *env = std::move(then_env);
        } else if (truth == TriBool::kFalse) {
          *env = std::move(else_env);
        } else {
          *env = JoinEnvs(then_env, else_env);
        }
        break;
      }
      case StmtKind::kFail:
        break;
    }
  }
}

// BFS over transitions that are producible and not provably false under the
// current variable ranges.
std::vector<bool> ReachableStates(const StateMachine& m, const std::vector<bool>& producible,
                                  const std::vector<TriBool>& guard) {
  std::vector<bool> reachable(m.states.size(), false);
  const int initial = m.StateIndex(m.initial);
  if (initial < 0) return reachable;
  std::deque<int> queue{initial};
  reachable[initial] = true;
  while (!queue.empty()) {
    const int state = queue.front();
    queue.pop_front();
    for (std::size_t i = 0; i < m.transitions.size(); ++i) {
      const Transition& t = m.transitions[i];
      if (!producible[i] || guard[i] == TriBool::kFalse) continue;
      if (t.from != m.states[state]) continue;
      const int to = m.StateIndex(t.to);
      if (to >= 0 && !reachable[to]) {
        reachable[to] = true;
        queue.push_back(to);
      }
    }
  }
  return reachable;
}

// ---- 1. reachability (ART001, ART002) -----------------------------------

void CheckReachability(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  const AppGraph& graph = ctx.graph;
  for (std::size_t mi = 0; mi < ctx.machines.size(); ++mi) {
    const StateMachine& m = ctx.machines[mi];
    const MachineFacts& f = ctx.facts[mi];
    for (std::size_t si = 0; si < m.states.size(); ++si) {
      if (f.reachable_state[si]) continue;
      Diagnostic d = MakeDiagnostic(diag::kUnreachableState, DiagSeverity::kError, m);
      d.state = m.states[si];
      d.message = "state '" + m.states[si] + "' is unreachable from initial state '" +
                  m.initial + "'";
      d.note = "no producible event sequence leads here; " + ScopeText(m, f, graph);
      engine->Report(std::move(d));
    }
    for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
      const Transition& t = m.transitions[ti];
      const int from = m.StateIndex(t.from);
      // Unproducible trigger on an otherwise-live state: the app graph can
      // never emit a matching event. Transitions from dead states are
      // already covered by ART001; provably-false guards by ART003.
      if (f.producible[ti] || from < 0 || !f.reachable_state[from]) continue;
      Diagnostic d = MakeDiagnostic(diag::kDeadTransition, DiagSeverity::kWarning, m);
      d.state = t.from;
      d.transition = static_cast<int>(ti);
      d.message = "transition " + std::to_string(ti) + " ('" + t.from + "' -> '" + t.to +
                  "' on " + TriggerText(t, graph) + ") can never fire: the event is not " +
                  "producible";
      d.note = ScopeText(m, f, graph);
      engine->Report(std::move(d));
    }
  }
}

// ---- 2. guard satisfiability (ART003, ART004) ---------------------------

void CheckGuards(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  const AppGraph& graph = ctx.graph;
  for (std::size_t mi = 0; mi < ctx.machines.size(); ++mi) {
    const StateMachine& m = ctx.machines[mi];
    const MachineFacts& f = ctx.facts[mi];
    for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
      const Transition& t = m.transitions[ti];
      const int from = m.StateIndex(t.from);
      if (!f.producible[ti] || from < 0 || !f.reachable_state[from]) continue;
      if (t.guard == nullptr) continue;
      if (f.guard[ti] == TriBool::kFalse) {
        Diagnostic d = MakeDiagnostic(diag::kUnsatisfiableGuard, DiagSeverity::kError, m);
        d.state = t.from;
        d.transition = static_cast<int>(ti);
        d.message = "guard '" + ExprToText(*t.guard) + "' on transition " +
                    std::to_string(ti) + " ('" + t.from + "' -> '" + t.to +
                    "') is always false";
        const std::string ranges = GuardRangesText(*t.guard, f.env);
        d.note = ranges.empty() ? std::string("the guard is constant-false")
                                : "provable variable ranges: " + ranges;
        engine->Report(std::move(d));
        continue;
      }
      if (f.guard[ti] != TriBool::kTrue) continue;
      // Statically-true guard: only interesting when it shadows a later
      // live transition the first-match dispatcher would otherwise reach.
      for (std::size_t tj = ti + 1; tj < m.transitions.size(); ++tj) {
        const Transition& other = m.transitions[tj];
        if (other.from != t.from || !f.producible[tj]) continue;
        if (f.guard[tj] == TriBool::kFalse) continue;
        if (!TriggerCovers(t, other)) continue;
        Diagnostic d = MakeDiagnostic(diag::kShadowingGuard, DiagSeverity::kWarning, m);
        d.state = t.from;
        d.transition = static_cast<int>(ti);
        d.message = "guard '" + ExprToText(*t.guard) + "' on transition " +
                    std::to_string(ti) + " from '" + t.from +
                    "' is always true and shadows transition " + std::to_string(tj) +
                    " (" + TriggerText(other, graph) + ")";
        d.note = "the dispatcher takes the first matching transition, so transition " +
                 std::to_string(tj) + " never fires";
        engine->Report(std::move(d));
        break;  // one shadowing report per always-true guard
      }
    }
  }
}

// ---- 3. determinism (ART005) --------------------------------------------

void CheckDeterminism(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  const AppGraph& graph = ctx.graph;
  for (std::size_t mi = 0; mi < ctx.machines.size(); ++mi) {
    const StateMachine& m = ctx.machines[mi];
    const MachineFacts& f = ctx.facts[mi];
    for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
      const Transition& a = m.transitions[ti];
      const int from = m.StateIndex(a.from);
      if (!f.producible[ti] || from < 0 || !f.reachable_state[from]) continue;
      if (f.guard[ti] == TriBool::kFalse) continue;
      // A non-null always-true guard already got ART004 for everything it
      // shadows; re-reporting the same pairs as ART005 would be noise.
      if (a.guard != nullptr && f.guard[ti] == TriBool::kTrue) continue;
      for (std::size_t tj = ti + 1; tj < m.transitions.size(); ++tj) {
        const Transition& b = m.transitions[tj];
        if (b.from != a.from || !f.producible[tj]) continue;
        if (f.guard[tj] == TriBool::kFalse) continue;
        if (!TriggersIntersect(a, b)) continue;
        if (ProvablyDisjoint(a.guard, b.guard)) continue;
        Diagnostic d =
            MakeDiagnostic(diag::kOverlappingTransitions, DiagSeverity::kError, m);
        d.state = a.from;
        d.transition = static_cast<int>(ti);
        d.message = "transitions " + std::to_string(ti) + " and " + std::to_string(tj) +
                    " from state '" + a.from + "' both match " + TriggerText(b, graph) +
                    " and their guards are not provably disjoint";
        d.note = std::string("guards: ") +
                 (a.guard ? "'" + ExprToText(*a.guard) + "'" : "(none)") + " vs " +
                 (b.guard ? "'" + ExprToText(*b.guard) + "'" : "(none)") +
                 "; the dispatcher silently picks transition " + std::to_string(ti);
        engine->Report(std::move(d));
      }
    }
  }
}

// ---- 4. variable liveness (ART006, ART007) ------------------------------

void CollectStmtAccesses(const std::vector<StmtPtr>& body, std::map<std::string, int>* reads,
                         std::set<std::string>* writes) {
  for (const StmtPtr& s : body) {
    switch (s->kind) {
      case StmtKind::kAssign:
        writes->insert(s->var);
        CollectVars(*s->value, reads);
        break;
      case StmtKind::kIf:
        CollectVars(*s->cond, reads);
        CollectStmtAccesses(s->then_body, reads, writes);
        CollectStmtAccesses(s->else_body, reads, writes);
        break;
      case StmtKind::kFail:
        break;
    }
  }
}

std::string CostNote(const std::string& name, bool written) {
  const CostModel& costs = DefaultCostModel();
  constexpr std::size_t kBytesPerVar = sizeof(double);
  const double commit_cycles = costs.nvm_commit_cycles_per_byte * kBytesPerVar;
  std::ostringstream out;
  out << "dropping '" << name << "' saves " << kBytesPerVar << " bytes of FRAM state and ~"
      << costs.text_per_variable << " bytes of .text";
  if (written) {
    out << ", plus " << commit_cycles << " NVM commit cycles per write";
  }
  return out.str();
}

void CheckLiveness(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  for (const StateMachine& m : ctx.machines) {
    std::map<std::string, int> reads;
    std::set<std::string> writes;
    for (const Transition& t : m.transitions) {
      if (t.guard != nullptr) CollectVars(*t.guard, &reads);
      CollectStmtAccesses(t.body, &reads, &writes);
    }
    for (const auto& [name, initial] : m.variables) {
      (void)initial;
      if (reads.count(name) != 0) continue;  // read vars are live
      const bool written = writes.count(name) != 0;
      Diagnostic d = MakeDiagnostic(written ? diag::kDeadWrite : diag::kUnusedVariable,
                                    DiagSeverity::kWarning, m);
      d.message = written
                      ? "variable '" + name + "' is written but never read"
                      : "variable '" + name + "' is declared but never referenced";
      d.note = CostNote(name, written);
      engine->Report(std::move(d));
    }
  }
}

// ---- 5. cross-machine verdict conflict (ART008) -------------------------

struct FailSite {
  ActionType action = ActionType::kNone;
  PathId target = kNoPath;
  int transition = -1;
};

void CollectFailSites(const std::vector<StmtPtr>& body, int transition,
                      std::vector<FailSite>* out) {
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::kFail) {
      out->push_back(FailSite{s->action, s->target_path, transition});
    } else if (s->kind == StmtKind::kIf) {
      CollectFailSites(s->then_body, transition, out);
      CollectFailSites(s->else_body, transition, out);
    }
  }
}

std::string ActionText(const FailSite& site) {
  std::string out = ActionTypeName(site.action);
  if (site.target != kNoPath) {
    out += " path " + std::to_string(site.target);
  }
  return out;
}

void CheckPair(const AnalysisContext& ctx, const std::vector<std::vector<FailSite>>& sites,
               std::size_t a, std::size_t b, DiagnosticEngine* engine) {
  const ArbitrationPolicy policy = ctx.options.policy;
  const StateMachine& ma = ctx.machines[a];
  const StateMachine& mb = ctx.machines[b];
  // Both machines must observe the same event: anchored to the same task
  // and with intersecting path scopes.
  if (ma.anchor_task != mb.anchor_task || ma.anchor_task == kInvalidTask) return;
  if (ma.path_scope != kNoPath && mb.path_scope != kNoPath &&
      ma.path_scope != mb.path_scope) {
    return;
  }
  for (const FailSite& fa : sites[a]) {
    for (const FailSite& fb : sites[b]) {
      const Transition& ta = ma.transitions[fa.transition];
      const Transition& tb = mb.transitions[fb.transition];
      if (!TriggersIntersect(ta, tb)) continue;
      if (fa.action == fb.action && fa.target == fb.target) continue;
      // Under severity arbitration a strict severity order resolves the
      // pair deterministically; only equal-severity disagreements are
      // arbitrary. First/last-wins depend on registration order alone.
      if (policy == ArbitrationPolicy::kSeverity &&
          ActionSeverity(fa.action) != ActionSeverity(fb.action)) {
        continue;
      }
      Diagnostic d = MakeDiagnostic(diag::kVerdictConflict, DiagSeverity::kWarning, ma);
      d.transition = fa.transition;
      d.message = "machines '" + ma.name + "' and '" + mb.name +
                  "' can demand conflicting actions (" + ActionText(fa) + " vs " +
                  ActionText(fb) + ") for one " + TriggerText(ta, ctx.graph) + " event";
      d.note = std::string("under policy '") + ArbitrationPolicyName(policy) +
               "' the tie breaks on registration order; scope the properties to disjoint "
               "paths or align their onFail actions";
      engine->Report(std::move(d));
      return;  // one report per machine pair
    }
  }
}

void CheckVerdictConflicts(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  // Failure sites per machine, restricted to transitions that can fire.
  const std::vector<StateMachine>& machines = ctx.machines;
  std::vector<std::vector<FailSite>> sites(machines.size());
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    const StateMachine& m = machines[mi];
    for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
      if (!ctx.facts[mi].reachable_transition[ti]) continue;
      CollectFailSites(m.transitions[ti].body, static_cast<int>(ti), &sites[mi]);
    }
  }
  for (std::size_t a = 0; a < machines.size(); ++a) {
    for (std::size_t b = a + 1; b < machines.size(); ++b) {
      CheckPair(ctx, sites, a, b, engine);
    }
  }
}

}  // namespace

MachineFacts ComputeMachineFacts(const StateMachine& machine, const AppGraph& graph) {
  MachineFacts facts;
  if (machine.path_scope != kNoPath && machine.path_scope <= graph.path_count()) {
    const auto& path = graph.path(machine.path_scope);
    facts.scope_tasks.insert(path.begin(), path.end());
  } else if (machine.path_scope == kNoPath) {
    for (PathId p = 1; p <= graph.path_count(); ++p) {
      const auto& path = graph.path(p);
      facts.scope_tasks.insert(path.begin(), path.end());
    }
  }

  const std::size_t n = machine.transitions.size();
  facts.producible.resize(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = machine.transitions[i];
    facts.producible[i] = t.trigger == TriggerKind::kAnyEvent
                              ? !facts.scope_tasks.empty()
                              : facts.scope_tasks.count(t.task) != 0;
  }

  // Abstract interpretation: start from the declared initial values and fire
  // every live transition until the variable ranges stabilize.
  IntervalEnv env;
  for (const auto& [name, value] : machine.variables) {
    env[name] = Interval::Point(value);
  }
  std::vector<TriBool> guard(n, TriBool::kTrue);
  std::vector<bool> reachable;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      const Transition& t = machine.transitions[i];
      guard[i] = t.guard == nullptr ? TriBool::kTrue : EvalPredicate(*t.guard, env);
    }
    reachable = ReachableStates(machine, facts.producible, guard);
    IntervalEnv next = env;
    for (std::size_t i = 0; i < n; ++i) {
      const Transition& t = machine.transitions[i];
      if (!facts.producible[i] || guard[i] == TriBool::kFalse) continue;
      const int from = machine.StateIndex(t.from);
      if (from < 0 || !reachable[from]) continue;
      IntervalEnv local = RefineByGuard(env, t.guard);
      EvalStmtsAbstract(t.body, &local);
      next = JoinEnvs(next, local);
    }
    if (SameEnv(next, env)) break;
    if (iter >= kWidenAfter) {
      for (auto& [name, range] : next) {
        const auto it = env.find(name);
        if (it == env.end()) continue;
        if (range.lo < it->second.lo) range.lo = -std::numeric_limits<double>::infinity();
        if (range.hi > it->second.hi) range.hi = std::numeric_limits<double>::infinity();
      }
    }
    env = std::move(next);
  }

  facts.env = std::move(env);
  facts.guard.resize(n, TriBool::kTrue);
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = machine.transitions[i];
    facts.guard[i] =
        t.guard == nullptr ? TriBool::kTrue : EvalPredicate(*t.guard, facts.env);
  }
  facts.reachable_state = ReachableStates(machine, facts.producible, facts.guard);
  facts.reachable_transition.resize(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const int from = machine.StateIndex(machine.transitions[i].from);
    facts.reachable_transition[i] = from >= 0 && facts.reachable_state[from] &&
                                    facts.producible[i] && facts.guard[i] != TriBool::kFalse;
  }
  return facts;
}

Diagnostic MakeDiagnostic(const char* code, DiagSeverity severity, const StateMachine& m) {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.machine = m.name;
  d.property = m.property_label;
  d.span = m.source;
  return d;
}

DiagnosticEngine AnalyzeMachines(const std::vector<StateMachine>& machines,
                                 const AppGraph& graph, const AnalysisOptions& options) {
  // The checks in report order (DiagnosticEngine keeps it); analyzer.h
  // says what each one finds.
  using Check = void (*)(const AnalysisContext&, DiagnosticEngine*);
  static constexpr Check kChecks[] = {
      CheckReachability,         // ART001, ART002
      CheckGuards,               // ART003, ART004
      CheckDeterminism,          // ART005
      CheckLiveness,             // ART006, ART007
      CheckVerdictConflicts,     // ART008
      CheckTaskAttempts,         // ART009
      CheckTimeBounds,           // ART010
      CheckProductReachability,  // ART011, ART012
      CheckWarHazards,           // ART013
      CheckFlightRing,           // ART014
  };
  DiagnosticEngine engine(options.werror);
  std::vector<MachineFacts> facts;
  facts.reserve(machines.size());
  for (const StateMachine& m : machines) {
    facts.push_back(ComputeMachineFacts(m, graph));
  }
  const AnalysisContext ctx{machines, facts, graph, options};
  for (const Check check : kChecks) {
    check(ctx, &engine);
  }
  return engine;
}

DotAnnotations AnnotationsFromDiagnostics(const std::vector<Diagnostic>& diagnostics) {
  DotAnnotations annotations;
  for (const Diagnostic& d : diagnostics) {
    if (d.code == diag::kUnreachableState && !d.state.empty()) {
      annotations[d.machine].dead_states.insert(d.state);
    } else if ((d.code == diag::kDeadTransition || d.code == diag::kUnsatisfiableGuard) &&
               d.transition >= 0) {
      annotations[d.machine].dead_transitions.insert(d.transition);
    }
  }
  return annotations;
}

}  // namespace artemis
