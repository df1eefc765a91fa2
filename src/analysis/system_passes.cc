#include "src/analysis/system_passes.h"

#include <algorithm>
#include <deque>
#include <iomanip>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "src/flight/record.h"
#include "src/flight/recorder.h"

namespace artemis {
namespace {

// App-level finding with no originating machine (the anchor is a task or a
// deployment knob, not a property).
Diagnostic MakeAppDiagnostic(const char* code, DiagSeverity severity, std::string property) {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.machine = "app";
  d.property = std::move(property);
  return d;
}

std::string Uj(EnergyUj v) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << v;
  return out.str();
}

// ---- energy feasibility (ART009, ART010) ---------------------------------

// Minimal per-boundary bookkeeping the runtime adds around each task. Kept
// deliberately smaller than any real cost model so ART010's best case never
// reports a false infeasibility.
constexpr SimDuration kBoundarySlack = kMillisecond;

// Best-case delay between the completion of `from` and the next start of
// `to` along `path` (sum of intervening task work), or nullopt when the
// order never occurs on that path.
std::optional<SimDuration> BestCaseInterTaskDelay(const AppGraph& graph, PathId path,
                                                  TaskId from, TaskId to) {
  const auto& tasks = graph.path(path);
  const auto from_it = std::find(tasks.begin(), tasks.end(), from);
  const auto to_it = std::find(tasks.begin(), tasks.end(), to);
  if (from_it == tasks.end() || to_it == tasks.end() || from_it >= to_it) {
    return std::nullopt;
  }
  SimDuration delay = 0;
  for (auto it = from_it + 1; it != to_it; ++it) {
    delay += graph.task(*it).work.duration + kBoundarySlack;
  }
  return delay + kBoundarySlack;
}

// Machines that step on `task`'s boundary events (the task is in their
// event scope).
std::size_t SteppingMachines(TaskId task, const std::vector<MachineFacts>& facts) {
  std::size_t n = 0;
  for (const MachineFacts& f : facts) {
    if (f.scope_tasks.count(task) != 0) ++n;
  }
  return n;
}

// Energy of delivering one boundary event of `task`: kernel bookkeeping is
// charged once per crossing via TaskBoundaryEnergy; this is the start-side
// half used when deciding whether the consumer's start still fits a window.
EnergyUj StartCrossingEnergy(TaskId task, const std::vector<MachineFacts>& facts,
                             const CostModel& costs) {
  const double cycles =
      costs.kernel_boundary_cycles + costs.event_build_cycles + costs.monitor_call_cycles +
      static_cast<double>(SteppingMachines(task, facts)) * costs.builtin_step_cycles;
  return EnergyFor(costs.mcu_active_power, costs.CyclesToTime(cycles));
}

// One "(ts - v) <= D" upper bound found in a guard.
struct DelayBound {
  std::string var;
  double bound_us = 0.0;
  bool strict = false;  // kLt instead of kLe
  std::size_t transition = 0;
  TriggerKind trigger = TriggerKind::kAnyEvent;
  TaskId task = kInvalidTask;
};

void CollectUpperBounds(const Expr& e, std::size_t ti, TriggerKind trigger, TaskId task,
                        std::vector<DelayBound>* out) {
  if (e.kind == ExprKind::kBinary && e.bin == BinOp::kAnd) {
    CollectUpperBounds(*e.lhs, ti, trigger, task, out);
    CollectUpperBounds(*e.rhs, ti, trigger, task, out);
    return;
  }
  if (e.kind != ExprKind::kBinary || (e.bin != BinOp::kLe && e.bin != BinOp::kLt)) return;
  const Expr& lhs = *e.lhs;
  if (lhs.kind != ExprKind::kBinary || lhs.bin != BinOp::kSub) return;
  if (lhs.lhs->kind != ExprKind::kEventField || lhs.lhs->field != EventField::kTimestamp) {
    return;
  }
  if (lhs.rhs->kind != ExprKind::kVar || e.rhs->kind != ExprKind::kConst) return;
  out->push_back(
      DelayBound{lhs.rhs->var, e.rhs->constant, e.bin == BinOp::kLt, ti, trigger, task});
}

bool AssignsTimestamp(const std::vector<StmtPtr>& body, const std::string& var) {
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::kAssign && s->var == var &&
        s->value->kind == ExprKind::kEventField && s->value->field == EventField::kTimestamp) {
      return true;
    }
    if (s->kind == StmtKind::kIf &&
        (AssignsTimestamp(s->then_body, var) || AssignsTimestamp(s->else_body, var))) {
      return true;
    }
  }
  return false;
}

// Best-case (delay, forced outages) for the end(from)->start(to) window
// over the candidate paths, or nullopt when the order never occurs.
std::optional<std::pair<SimDuration, int>> BestWindow(
    const AnalysisContext& ctx, TaskId from, TaskId to, const std::vector<PathId>& paths,
    EnergyUj budget, SimDuration charge, EnergyUj producer_attempt) {
  std::optional<std::pair<SimDuration, int>> best;
  for (const PathId p : paths) {
    const std::optional<SimDuration> work_delay =
        BestCaseInterTaskDelay(ctx.graph, p, from, to);
    if (!work_delay.has_value()) continue;
    int outages = 0;
    if (charge > 0) {
      // Greedy packing: spend the window's residual energy, then whole
      // fresh periods. Undercounts rather than overcounts (the consumer
      // only needs its start-side crossing), so the resulting delay is a
      // true lower bound and ART010 never fires on a meetable bound.
      EnergyUj cap = budget - producer_attempt;
      bool impossible = false;
      const auto& tasks = ctx.graph.path(p);
      const auto from_it = std::find(tasks.begin(), tasks.end(), from);
      const auto to_it = std::find(tasks.begin(), tasks.end(), to);
      for (auto it = from_it + 1; it != to_it; ++it) {
        const TaskDef& def = ctx.graph.task(*it);
        const EnergyUj need = TaskBoundaryEnergy(*it, ctx.facts, DefaultCostModel()) +
                              EnergyFor(def.work.power, def.work.duration);
        if (need > cap) {
          ++outages;
          cap = budget - AnalysisRebootEnergy(DefaultCostModel());
          if (need > cap) {
            impossible = true;  // the task alone overflows a period: ART009's case
            break;
          }
        }
        cap -= need;
      }
      if (impossible) continue;
      if (StartCrossingEnergy(to, ctx.facts, DefaultCostModel()) > cap) ++outages;
    }
    const SimDuration reboot =
        DefaultCostModel().CyclesToTime(DefaultCostModel().reboot_restore_cycles);
    const SimDuration delay =
        *work_delay + static_cast<SimDuration>(outages) * (charge + reboot);
    if (!best.has_value() || delay < best->first) {
      best = std::make_pair(delay, outages);
    }
  }
  return best;
}

void CheckBound(const AnalysisContext& ctx, std::size_t mi, const DelayBound& bound,
                DiagnosticEngine* engine) {
  const StateMachine& m = ctx.machines[mi];
  const AnalysisOptions& opt = ctx.options;
  // The producer is the transition that refreshes the timestamp slot.
  TriggerKind producer_trigger = TriggerKind::kAnyEvent;
  TaskId producer_task = kInvalidTask;
  for (const Transition& t : m.transitions) {
    if (!AssignsTimestamp(t.body, bound.var)) continue;
    producer_trigger = t.trigger;
    producer_task = t.task;
    break;
  }
  if (producer_task == kInvalidTask || bound.task == kInvalidTask) return;

  const bool inter_task = producer_trigger == TriggerKind::kEndTask &&
                          bound.trigger == TriggerKind::kStartTask &&
                          producer_task != bound.task;
  const bool intra_task = producer_trigger == TriggerKind::kStartTask &&
                          bound.trigger == TriggerKind::kEndTask &&
                          producer_task == bound.task;
  // Same-task start->start bounds (period) measure cadence, not a window
  // the analyzer can lower-bound from the graph alone: the gap between
  // activations is dominated by the *other* paths' work, which corrective
  // actions can skip entirely. Left to the runtime monitor.
  if (!inter_task && !intra_task) return;

  // Candidate paths the window can occur on.
  std::vector<PathId> paths;
  if (m.path_scope != kNoPath) {
    paths.push_back(m.path_scope);
  } else {
    for (PathId p = 1; p <= ctx.graph.path_count(); ++p) paths.push_back(p);
  }

  std::size_t evaluated = 0;
  std::size_t feasible = 0;
  bool have_best = false;
  SimDuration best_delay = 0;
  int best_outages = 0;
  EnergyUj best_budget = 0;
  SimDuration best_charge = 0;
  for (const EnergyUj budget : opt.budgets) {
    // Best case: the producer commits at the start of a fresh on-period,
    // so the window opens with `budget - attempt(producer)` left.
    const EnergyUj producer_attempt = TaskAttemptEnergy(
        ctx.graph, inter_task ? producer_task : bound.task, ctx.facts, DefaultCostModel());
    if (producer_attempt > budget) continue;  // ART009's finding, not ours
    for (const SimDuration charge : opt.charges) {
      std::optional<std::pair<SimDuration, int>> window;
      if (intra_task) {
        // The slot opens at start(T) and the bound is checked at end(T):
        // a successful attempt runs the work uninterrupted.
        window = std::make_pair(ctx.graph.task(bound.task).work.duration, 0);
      } else {
        window = BestWindow(ctx, producer_task, bound.task, paths, budget, charge,
                            producer_attempt);
      }
      if (!window.has_value()) continue;
      ++evaluated;
      const auto [delay, outages] = *window;
      const double delay_us = static_cast<double>(delay);
      const bool ok = bound.strict ? delay_us < bound.bound_us : delay_us <= bound.bound_us;
      if (ok) ++feasible;
      if (!have_best || delay < best_delay) {
        have_best = true;
        best_delay = delay;
        best_outages = outages;
        best_budget = budget;
        best_charge = charge;
      }
    }
  }
  if (evaluated == 0 || feasible == evaluated) return;

  const bool all = feasible == 0;
  Diagnostic d = MakeDiagnostic(diag::kTimeBoundInfeasible,
                                all ? DiagSeverity::kError : DiagSeverity::kWarning, m);
  d.transition = static_cast<int>(bound.transition);
  const std::string window_text =
      inter_task ? "end(" + ctx.graph.TaskName(producer_task) + ") -> start(" +
                       ctx.graph.TaskName(bound.task) + ")"
                 : "start -> end of '" + ctx.graph.TaskName(bound.task) + "'";
  const SimDuration limit = static_cast<SimDuration>(bound.bound_us);
  if (all) {
    d.message = "time bound " + FormatDuration(limit) + " on the " + window_text +
                " window is infeasible under every supplied (budget, charge) " +
                "combination: the best case needs " + FormatDuration(best_delay);
  } else {
    d.message = "time bound " + FormatDuration(limit) + " on the " + window_text +
                " window is infeasible under " + std::to_string(evaluated - feasible) +
                " of " + std::to_string(evaluated) + " supplied (budget, charge) " +
                "combinations";
  }
  std::ostringstream note;
  note << "closest combination: budget " << Uj(best_budget) << " uJ, charge period "
       << (best_charge == 0 ? std::string("continuous") : FormatDuration(best_charge))
       << " forces " << best_outages << " outage(s) into the window";
  if (all) note << "; the property violates on every run";
  d.note = note.str();
  engine->Report(std::move(d));
}

// ---- product reachability (ART011, ART012) -------------------------------

// Does some fail site in `body` possibly execute under `env`? Branches
// whose condition is provably false (true) are pruned on the then (else)
// side; everything else may run.
bool AnyFailMayExecute(const std::vector<StmtPtr>& body, const IntervalEnv& env) {
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::kFail) return true;
    if (s->kind != StmtKind::kIf) continue;
    const TriBool truth = EvalPredicate(*s->cond, env);
    if (truth != TriBool::kFalse && AnyFailMayExecute(s->then_body, env)) return true;
    if (truth != TriBool::kTrue && AnyFailMayExecute(s->else_body, env)) return true;
  }
  return false;
}

// Does `body` *definitely* execute a fail when it runs under `env`?
bool MustFail(const std::vector<StmtPtr>& body, const IntervalEnv& env) {
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::kFail) return true;
    if (s->kind != StmtKind::kIf) continue;
    const TriBool truth = EvalPredicate(*s->cond, env);
    if (truth == TriBool::kTrue && MustFail(s->then_body, env)) return true;
    if (truth == TriBool::kFalse && MustFail(s->else_body, env)) return true;
    if (truth == TriBool::kUnknown && MustFail(s->then_body, env) &&
        MustFail(s->else_body, env)) {
      return true;
    }
  }
  return false;
}

bool HasFailSite(const StateMachine& m) {
  std::deque<const std::vector<StmtPtr>*> queue;
  for (const Transition& t : m.transitions) queue.push_back(&t.body);
  while (!queue.empty()) {
    const std::vector<StmtPtr>* body = queue.front();
    queue.pop_front();
    for (const StmtPtr& s : *body) {
      if (s->kind == StmtKind::kFail) return true;
      if (s->kind == StmtKind::kIf) {
        queue.push_back(&s->then_body);
        queue.push_back(&s->else_body);
      }
    }
  }
  return false;
}

// ART011: every fail site is dead — its transition can never fire, or the
// branch guarding it is provably false at the fixpoint. The machine-local
// facts over-approximate every event order (including power-failure
// restarts), so "dead" here is sound: the property truly never signals.
void CheckDeadViolation(const AnalysisContext& ctx, std::size_t mi, DiagnosticEngine* engine) {
  const StateMachine& m = ctx.machines[mi];
  const MachineFacts& f = ctx.facts[mi];
  for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
    if (!f.reachable_transition[ti]) continue;
    if (AnyFailMayExecute(m.transitions[ti].body, f.env)) return;  // a live fail
  }
  Diagnostic d = MakeDiagnostic(diag::kDeadViolation, DiagSeverity::kWarning, m);
  d.message = "property can never signal a violation: every fail site is on a dead "
              "transition or behind a provably-false branch";
  const CostModel& costs = DefaultCostModel();
  const std::size_t text = costs.text_per_state * m.states.size() +
                           costs.text_per_transition * m.transitions.size() +
                           costs.text_per_variable * m.variables.size();
  std::ostringstream note;
  note << "dead weight: ~" << text << " bytes of .text, "
       << m.variables.size() * sizeof(double) << " bytes of FRAM slots, and "
       << costs.builtin_step_cycles
       << " cycles of monitor stepping per observed event; drop the property or fix "
          "its scope";
  d.note = note.str();
  engine->Report(std::move(d));
}

bool Matches(const Transition& t, bool is_start, TaskId task) {
  if (t.trigger == TriggerKind::kAnyEvent) return true;
  if (t.trigger == TriggerKind::kStartTask) return is_start && t.task == task;
  return !is_start && t.task == task;
}

// First-match dispatch outcomes that avoid a definite violation: the
// machine states reachable when `event` is delivered in `state`. Guard
// truth comes from the machine-local fixpoint (a sound over-approximation
// of every real run), so a kTrue guard really always fires and a kFalse
// guard never does.
void ViolationFreeOutcomes(const StateMachine& m, const MachineFacts& f, int state, bool is_start,
                           TaskId task, std::vector<int>* out) {
  bool definite = false;
  for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
    const Transition& t = m.transitions[ti];
    if (t.from != m.states[state] || !Matches(t, is_start, task)) continue;
    if (f.guard[ti] == TriBool::kFalse) continue;
    if (!MustFail(t.body, f.env)) {
      const int to = m.StateIndex(t.to);
      if (to >= 0) out->push_back(to);
    }
    if (f.guard[ti] == TriBool::kTrue) {
      definite = true;  // first definite match wins; nothing falls through
      break;
    }
  }
  // No transition was guaranteed to fire: staying put is a real outcome
  // (implicit self-transition on unmatched events).
  if (!definite) out->push_back(state);
}

// ART012: explore the (app position x machine state) product along the
// kernel's declaration-order execution, keeping only dispatch outcomes
// that avoid a definite violation. If app completion is unreachable in
// that subgraph, every complete run trips the property. Re-execution
// stutters (a start re-delivered after an outage) are included, so a run
// that dodges the violation only via restarts still counts as clean.
void CheckInevitableViolation(const AnalysisContext& ctx, std::size_t mi,
                              DiagnosticEngine* engine) {
  const StateMachine& m = ctx.machines[mi];
  const MachineFacts& f = ctx.facts[mi];
  const int initial = m.StateIndex(m.initial);
  if (initial < 0 || ctx.graph.path_count() == 0) return;

  // Flattened app positions in execution order.
  struct Position {
    PathId path;
    TaskId task;
  };
  std::vector<Position> positions;
  for (PathId p = 1; p <= ctx.graph.path_count(); ++p) {
    for (const TaskId task : ctx.graph.path(p)) {
      positions.push_back(Position{p, task});
    }
  }
  if (positions.empty()) return;

  const std::size_t n_states = m.states.size();
  // Node = (position, started?) x machine state; one extra app node for
  // "complete".
  const std::size_t n_app = positions.size() * 2 + 1;
  const std::size_t complete = positions.size() * 2;
  std::vector<bool> visited(n_app * n_states, false);
  const auto id = [n_states](std::size_t app, int state) {
    return app * n_states + static_cast<std::size_t>(state);
  };
  std::deque<std::pair<std::size_t, int>> queue;
  visited[id(0, initial)] = true;
  queue.emplace_back(0, initial);
  bool completed = false;

  while (!queue.empty() && !completed) {
    const auto [app, state] = queue.front();
    queue.pop_front();
    const std::size_t pos = app / 2;
    const bool started = (app % 2) != 0;
    const Position& at = positions[pos];
    const bool in_scope = m.path_scope == kNoPath || m.path_scope == at.path;

    // (event, successor app node) pairs this position produces.
    struct Delivery {
      bool is_start;
      std::size_t next_app;
    };
    std::vector<Delivery> deliveries;
    if (!started) {
      deliveries.push_back(Delivery{true, pos * 2 + 1});
    } else {
      const std::size_t next =
          pos + 1 < positions.size() ? (pos + 1) * 2 : complete;
      deliveries.push_back(Delivery{false, next});
      // Power-failure re-execution: the start fires again, the app does
      // not advance.
      deliveries.push_back(Delivery{true, pos * 2 + 1});
    }
    for (const Delivery& del : deliveries) {
      std::vector<int> outcomes;
      if (in_scope) {
        ViolationFreeOutcomes(m, f, state, del.is_start, at.task, &outcomes);
      } else {
        outcomes.push_back(state);
      }
      for (const int next_state : outcomes) {
        if (del.next_app == complete) {
          completed = true;
          break;
        }
        if (!visited[id(del.next_app, next_state)]) {
          visited[id(del.next_app, next_state)] = true;
          queue.emplace_back(del.next_app, next_state);
        }
      }
      if (completed) break;
    }
  }
  if (completed) return;

  Diagnostic d = MakeDiagnostic(diag::kInevitableViolation, DiagSeverity::kError, m);
  d.message = "a violation is inevitable: no run of the app reaches completion without "
              "tripping a definite fail of this property";
  d.note = "explored " + std::to_string(n_app * n_states) +
           " app-position x state configurations (including re-execution stutters); "
           "the spec is vacuously broken — weaken the guard, widen the bound, or fix "
           "the property's path scope";
  engine->Report(std::move(d));
}

// ---- re-execution / WAR hazard (ART013) ---------------------------------

// Slots updated from their own prior value (i = i + 1 and friends).
void CollectSelfWarSlots(const std::vector<StmtPtr>& body, std::set<std::string>* out) {
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::kAssign) {
      std::map<std::string, int> reads;
      CollectVars(*s->value, &reads);
      if (reads.count(s->var) != 0) out->insert(s->var);
    } else if (s->kind == StmtKind::kIf) {
      CollectSelfWarSlots(s->then_body, out);
      CollectSelfWarSlots(s->else_body, out);
    }
  }
}

}  // namespace

EnergyUj AnalysisRebootEnergy(const CostModel& costs) {
  return EnergyFor(costs.mcu_active_power, costs.CyclesToTime(costs.reboot_restore_cycles));
}

EnergyUj TaskBoundaryEnergy(TaskId task, const std::vector<MachineFacts>& facts,
                            const CostModel& costs) {
  const double per_event =
      costs.event_build_cycles + costs.monitor_call_cycles +
      static_cast<double>(SteppingMachines(task, facts)) * costs.builtin_step_cycles;
  const double cycles = costs.kernel_boundary_cycles + 2.0 * per_event;
  return EnergyFor(costs.mcu_active_power, costs.CyclesToTime(cycles));
}

EnergyUj TaskAttemptEnergy(const AppGraph& graph, TaskId task,
                           const std::vector<MachineFacts>& facts, const CostModel& costs) {
  const TaskDef& def = graph.task(task);
  return AnalysisRebootEnergy(costs) + TaskBoundaryEnergy(task, facts, costs) +
         EnergyFor(def.work.power, def.work.duration);
}

// ART009: a task whose single atomic attempt exceeds the budget browns
// out on every try; the kernel retries forever. A closed comparison —
// an attempt that exactly fits the budget is feasible (the sim drains to
// zero and commits), so ART009 cannot flap on equality.
void CheckTaskAttempts(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  const AnalysisOptions& opt = ctx.options;
  if (opt.budgets.empty()) return;
  for (TaskId task = 0; task < ctx.graph.task_count(); ++task) {
    const EnergyUj attempt = TaskAttemptEnergy(ctx.graph, task, ctx.facts, DefaultCostModel());
    std::size_t infeasible = 0;
    EnergyUj max_budget = opt.budgets.front();
    for (const EnergyUj budget : opt.budgets) {
      max_budget = std::max(max_budget, budget);
      if (attempt > budget) ++infeasible;
    }
    if (infeasible == 0) continue;
    const bool all = infeasible == opt.budgets.size();
    Diagnostic d =
        MakeAppDiagnostic(diag::kEnergyInfeasibleTask,
                          all ? DiagSeverity::kError : DiagSeverity::kWarning,
                          "task '" + ctx.graph.TaskName(task) + "'");
    const TaskDef& def = ctx.graph.task(task);
    if (all) {
      d.message = "task '" + def.name + "' needs " + Uj(attempt) +
                  " uJ per atomic attempt but no supplied budget reaches it (max budget " +
                  Uj(max_budget) + " uJ); it can never commit";
    } else {
      d.message = "task '" + def.name + "' needs " + Uj(attempt) +
                  " uJ per atomic attempt, infeasible under " + std::to_string(infeasible) +
                  " of " + std::to_string(opt.budgets.size()) + " supplied budgets";
    }
    d.note = "work " + Uj(EnergyFor(def.work.power, def.work.duration)) +
             " uJ + boot restore " + Uj(AnalysisRebootEnergy(DefaultCostModel())) +
             " uJ + boundary/monitor overhead " +
             Uj(TaskBoundaryEnergy(task, ctx.facts, DefaultCostModel())) +
             " uJ; every attempt browns out and the kernel retries the task forever";
    engine->Report(std::move(d));
  }
}

// ART010: recognize the lowered "timestamp slot + delay bound" shape
// (MITD and maxDuration) and decide whether any supplied (budget, charge)
// combination lets the best case meet the bound once the outages the
// budget forces into the producer->consumer window are packed in.
void CheckTimeBounds(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  for (std::size_t mi = 0; mi < ctx.machines.size(); ++mi) {
    const StateMachine& m = ctx.machines[mi];
    std::vector<DelayBound> bounds;
    for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
      const Transition& t = m.transitions[ti];
      if (t.guard == nullptr || !ctx.facts[mi].producible[ti]) continue;
      CollectUpperBounds(*t.guard, ti, t.trigger, t.task, &bounds);
    }
    std::set<std::string> seen;  // one report per (slot, bound) pair
    for (const DelayBound& bound : bounds) {
      if (!seen.insert(bound.var + "/" + std::to_string(bound.bound_us)).second) continue;
      CheckBound(ctx, mi, bound, engine);
    }
  }
}

void CheckProductReachability(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  for (std::size_t mi = 0; mi < ctx.machines.size(); ++mi) {
    const StateMachine& m = ctx.machines[mi];
    if (!HasFailSite(m)) continue;
    CheckDeadViolation(ctx, mi, engine);
    CheckInevitableViolation(ctx, mi, engine);
  }
}

// ART013: with two-phase commit disabled, a power failure between the
// slot's NVM write and the boundary commit re-delivers the event on
// reboot and replays every write-after-read update — counters drift by
// one per outage, silently.
void CheckWarHazards(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  if (ctx.options.two_phase_commit) return;
  for (std::size_t mi = 0; mi < ctx.machines.size(); ++mi) {
    const StateMachine& m = ctx.machines[mi];
    std::set<std::string> slots;
    int first_transition = -1;
    for (std::size_t ti = 0; ti < m.transitions.size(); ++ti) {
      if (!ctx.facts[mi].reachable_transition[ti]) continue;
      const std::size_t before = slots.size();
      CollectSelfWarSlots(m.transitions[ti].body, &slots);
      if (first_transition < 0 && slots.size() > before) {
        first_transition = static_cast<int>(ti);
      }
    }
    if (slots.empty()) continue;
    Diagnostic d = MakeDiagnostic(diag::kReExecutionWarHazard, DiagSeverity::kError, m);
    d.transition = first_transition;
    std::ostringstream msg;
    msg << "monitor slot";
    bool first = true;
    for (const std::string& slot : slots) {
      msg << (first ? " '" : ", '") << slot << "'";
      first = false;
    }
    msg << (slots.size() == 1 ? " is updated from its own prior value"
                              : " are updated from their own prior values")
        << " (write-after-read) with two-phase commit disabled";
    d.message = msg.str();
    d.note = "a power failure between the slot write and the boundary commit replays "
             "the update on re-execution; run the kernel in immortal (two-phase "
             "commit) mode or make the update idempotent";
    engine->Report(std::move(d));
  }
}

// ART014: the flight ring must hold at least one worst-case record
// (payload + seal byte + zero terminator), or Append drops records
// silently; below two records, any append may evict the entire sealed
// history, leaving no forensic context after a crash.
void CheckFlightRing(const AnalysisContext& ctx, DiagnosticEngine* engine) {
  if (!ctx.options.flight_enabled) return;
  const std::size_t capacity =
      std::max(ctx.options.flight_bytes, flight::FlightRecorder::kMinCapacityBytes);
  const std::size_t footprint = flight::kWorstCasePayloadBytes + 2;
  if (capacity >= footprint * 2) return;
  const bool fatal = capacity < footprint;
  Diagnostic d = MakeAppDiagnostic(diag::kFlightRingHazard,
                                   fatal ? DiagSeverity::kError : DiagSeverity::kWarning,
                                   "flight recorder");
  if (fatal) {
    d.message = "flight ring of " + std::to_string(capacity) +
                " bytes cannot hold one worst-case record (" +
                std::to_string(flight::kWorstCasePayloadBytes) +
                "-byte payload + seal + terminator = " + std::to_string(footprint) +
                " bytes): appends are dropped silently";
    d.note = "raise the flight ring to at least " + std::to_string(footprint) +
             " bytes; as sized, the black box records nothing for worst-case events";
  } else {
    d.message = "flight ring of " + std::to_string(capacity) +
                " bytes holds at most one worst-case record: any append may evict "
                "the entire sealed history";
    d.note = "raise the flight ring to at least " + std::to_string(footprint * 2) +
             " bytes to retain forensic context across a crash";
  }
  engine->Report(std::move(d));
}

}  // namespace artemis
