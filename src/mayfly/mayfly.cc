#include "src/mayfly/mayfly.h"

namespace artemis {

void MayflyChecker::AddRule(MayflyRule rule) {
  rules_.push_back(std::move(rule));
  states_.emplace_back();
}

std::size_t MayflyChecker::FramBytes() const {
  // The fused design keeps per-rule timestamp/counter state *and* the task
  // graph's timing table inside the runtime's FRAM region.
  return rules_.size() * (sizeof(RuleState) + kMayflyRuleFramBytes) + 96;
}

void MayflyChecker::HardReset(Mcu&) {
  for (RuleState& state : states_) {
    state = RuleState{};
  }
}

void MayflyChecker::Finalize(Mcu&) {
  // The fused checks are restartable by construction: they read committed
  // timestamps only, so a reboot needs no monitor-side recovery.
}

CheckOutcome MayflyChecker::OnEvent(const MonitorEvent& event, Mcu& mcu) {
  CheckOutcome outcome;
  const ExecStatus charge = mcu.ExecuteCharge(mcu.charges().mayfly_check, CostTag::kRuntime);
  if (charge != ExecStatus::kOk) {
    outcome.status = static_cast<int>(charge);
    return outcome;
  }
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const MayflyRule& rule = rules_[i];
    RuleState& state = states_[i];
    if (rule.scope != kNoPath && event.path != rule.scope) {
      continue;
    }
    if (event.kind == EventKind::kEndTask && event.task == rule.dep) {
      state.last_dep_end = event.timestamp;
      state.dep_seen = true;
      if (rule.kind == MayflyRule::Kind::kCollect) {
        ++state.collected;
      }
      continue;
    }
    if (event.kind == EventKind::kEndTask && event.task == rule.task &&
        rule.kind == MayflyRule::Kind::kCollect) {
      state.collected = 0;  // Samples consumed at the task's commit.
      continue;
    }
    if (event.kind != EventKind::kStartTask || event.task != rule.task) {
      continue;
    }
    switch (rule.kind) {
      case MayflyRule::Kind::kExpiration: {
        if (!state.dep_seen) {
          break;
        }
        const SimDuration age =
            event.timestamp >= state.last_dep_end ? event.timestamp - state.last_dep_end : 0;
        if (age > rule.expiry) {
          // Expired data: Mayfly restarts the producing path,
          // unconditionally, every time (the non-termination mechanism).
          // The timestamp stays: every subsequent start re-checks age
          // against the latest completion of the producer.
          outcome.verdict.action = ActionType::kRestartPath;
          outcome.verdict.target_path = rule.path;
          outcome.verdict.property = rule.label;
          return outcome;
        }
        break;
      }
      case MayflyRule::Kind::kCollect: {
        if (state.collected >= rule.count) {
          break;  // Satisfied; the counter clears when the consumer commits.
        }
        outcome.verdict.action = ActionType::kRestartPath;
        outcome.verdict.target_path = rule.path;
        outcome.verdict.property = rule.label;
        return outcome;
      }
    }
  }
  return outcome;
}

void MayflyChecker::OnPathRestart(PathId, Mcu&) {
  // Mayfly keeps its committed timestamps across graph restarts.
}

StatusOr<MayflySpec> MayflyFromSpec(const SpecAst& spec, const AppGraph& graph) {
  MayflySpec out;
  for (const TaskBlockAst& block : spec.blocks) {
    const std::optional<TaskId> task = graph.FindTask(block.task);
    if (!task.has_value()) {
      return Status::NotFound("unknown task '" + block.task + "'");
    }
    for (const PropertyAst& p : block.properties) {
      const std::string label = p.Label(block.task);
      switch (p.kind) {
        case PropertyKind::kMitd:
        case PropertyKind::kCollect: {
          const std::optional<TaskId> dep = graph.FindTask(p.dp_task);
          if (!dep.has_value()) {
            return Status::NotFound(label + ": unknown dpTask '" + p.dp_task + "'");
          }
          MayflyRule rule;
          rule.kind = p.kind == PropertyKind::kMitd ? MayflyRule::Kind::kExpiration
                                                    : MayflyRule::Kind::kCollect;
          rule.task = *task;
          rule.dep = *dep;
          rule.expiry = p.duration;
          rule.count = p.count;
          rule.path = p.path;
          // Cross-path dependencies keep the path purely as the restart
          // target.
          rule.scope = graph.ScopeFor(p.path, *task);
          rule.label = "mayfly:" + label;
          out.rules.push_back(std::move(rule));
          if (p.max_attempt != 0) {
            out.dropped.push_back(label + "/maxAttempt (unsupported by Mayfly)");
          }
          break;
        }
        case PropertyKind::kMaxTries:
        case PropertyKind::kMaxDuration:
        case PropertyKind::kDpData:
        case PropertyKind::kPeriod:
        case PropertyKind::kMinEnergy:
          out.dropped.push_back(label + " (unsupported by Mayfly)");
          break;
      }
    }
  }
  return out;
}

MayflyRuntime::MayflyRuntime(const AppGraph* graph, MayflySpec spec, Mcu* mcu,
                             KernelOptions options)
    : checker_(std::make_unique<MayflyChecker>()), dropped_(std::move(spec.dropped)) {
  for (MayflyRule& rule : spec.rules) {
    checker_->AddRule(std::move(rule));
  }
  mcu->nvm().Allocate(MemOwner::kRuntime, checker_->FramBytes(), "mayfly-fused-state");
  kernel_ = std::make_unique<IntermittentKernel>(graph, checker_.get(), mcu, options);
}

StatusOr<std::unique_ptr<MayflyRuntime>> MayflyRuntime::Create(const AppGraph* graph,
                                                               const SpecAst& spec, Mcu* mcu,
                                                               KernelOptions options) {
  if (const Status status = graph->Validate(); !status.ok()) {
    return status;
  }
  StatusOr<MayflySpec> rules = MayflyFromSpec(spec, *graph);
  if (!rules.ok()) {
    return rules.status();
  }
  std::unique_ptr<MayflyRuntime> runtime(
      new MayflyRuntime(graph, std::move(rules).value(), mcu, options));
  if (const Status& fits = mcu->nvm().exhaustion(); !fits.ok()) {
    return fits;
  }
  return runtime;
}

std::size_t MayflyRuntime::RuntimeTextBytes() {
  const CostModel& costs = DefaultCostModel();
  return costs.text_kernel_base + costs.text_mayfly_runtime_extra;
}

}  // namespace artemis
