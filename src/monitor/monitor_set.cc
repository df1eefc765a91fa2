#include "src/monitor/monitor_set.h"

#include <algorithm>

#include "src/monitor/arbitration.h"
#include "src/monitor/shared_spec.h"
#include "src/sim/mcu.h"

namespace artemis {

const char* MonitorBackendName(MonitorBackend backend) {
  switch (backend) {
    case MonitorBackend::kInterpreted:
      return "interpreted";
    case MonitorBackend::kBuiltin:
      return "builtin";
    case MonitorBackend::kCompiled:
      return "compiled";
  }
  return "?";
}

const char* MonitorPlacementName(MonitorPlacement placement) {
  switch (placement) {
    case MonitorPlacement::kSeparate:
      return "separate";
    case MonitorPlacement::kInlined:
      return "inlined";
    case MonitorPlacement::kRemote:
      return "remote";
  }
  return "?";
}

std::size_t MonitorSet::InlinedTextBytes(std::size_t separate_text_bytes,
                                         std::size_t call_sites) {
  // Weaving duplicates the checking code at every event site; a small
  // fraction (the shared state declarations) is not duplicated.
  const std::size_t shared = separate_text_bytes / 5;
  return shared + (separate_text_bytes - shared) * (call_sites == 0 ? 1 : call_sites);
}

const CycleCharge& StepCharge(MonitorBackend backend, const CycleCharges& charges) {
  switch (backend) {
    case MonitorBackend::kInterpreted:
      return charges.interp_step;
    case MonitorBackend::kBuiltin:
      return charges.builtin_step;
    case MonitorBackend::kCompiled:
      break;
  }
  return charges.compiled_step;
}

std::size_t MonitorSetFramBytes(std::size_t monitors, std::size_t state_bytes) {
  constexpr std::size_t kDoneSeq = 8;
  constexpr std::size_t kContinuation = 16;
  constexpr std::size_t kPropertySlot = 24;
  return kDoneSeq + kVerdictCacheFramBytes + kContinuation + state_bytes +
         monitors * kPropertySlot;
}

MonitorSet::MonitorSet(MonitorBackend backend, MonitorPlacement placement,
                       std::vector<std::unique_ptr<Monitor>> monitors, std::size_t tasks)
    : backend_(backend), placement_(placement), tasks_(tasks), monitors_(std::move(monitors)) {
  IndexReactors();
}

void MonitorSet::ReplaceMonitors(std::vector<std::unique_ptr<Monitor>> monitors) {
  // Only called at quiescence (no event mid-arbitration), so pending_ is
  // empty and the continuation is retired; the verdict cache and counters
  // survive so pre-swap events replay idempotently. The cached verdict's
  // label may live in the old monitors or their artifact, so they retire
  // until the cache moves on. The NVM arena keeps the original
  // registration: the swap stages the new image into the same monitor
  // region (docs/hotswap.md sizes it as max(old, new)).
  for (std::unique_ptr<Monitor>& old : monitors_) {
    retired_.push_back(std::move(old));
  }
  monitors_ = std::move(monitors);
  IndexReactors();
  pending_.clear();
}

void MonitorSet::IndexReactors() {
  // Column tasks_ answers for every task id at or past it: builtin and
  // interpreted monitors compare the task only with in-graph ids, and a
  // compiled machine clamps every id past its max_task, which is below
  // tasks_, onto one column. Counted first, so each vector is sized once.
  const std::size_t columns = (tasks_ + 1) * 2;
  const auto reacts = [this](std::size_t column, std::size_t i) {
    return monitors_[i]->Reacts(static_cast<EventKind>(column % 2),
                                static_cast<TaskId>(column / 2));
  };
  column_begin_.assign(columns + 1, 0);
  for (std::size_t column = 0; column < columns; ++column) {
    column_begin_[column + 1] = column_begin_[column];
    for (std::size_t i = 0; i < monitors_.size(); ++i) {
      column_begin_[column + 1] += reacts(column, i) ? 1 : 0;
    }
  }
  reactors_.resize(column_begin_[columns]);
  std::size_t at = 0;
  for (std::size_t column = 0; column < columns; ++column) {
    for (std::uint32_t i = 0; i < monitors_.size(); ++i) {
      if (reacts(column, i)) {
        reactors_[at++] = i;
      }
    }
  }
}

std::size_t MonitorSet::FramBytes() const {
  std::size_t state_bytes = 0;
  for (const auto& monitor : monitors_) {
    state_bytes += monitor->FramBytes();
  }
  return MonitorSetFramBytes(monitors_.size(), state_bytes);
}

void MonitorSet::HardReset(Mcu&) {
  for (const auto& monitor : monitors_) {
    monitor->HardReset();
  }
  pending_.clear();
  done_seq_ = 0;
  has_cached_verdict_ = false;
  cached_verdict_ = MonitorVerdict{};
  retired_.clear();
  continuation_.Finish();
}

void MonitorSet::Finalize(Mcu& mcu) {
  // Interrupted event processing is completed lazily: the kernel re-delivers
  // the pending event and OnEvent resumes from the saved cursor. The boot
  // pass just pays the bookkeeping read.
  if (continuation_.InProgress()) {
    mcu.ExecuteCharge(mcu.charges().timestamp_read, CostTag::kMonitor);
  }
}

CheckOutcome MonitorSet::OnEvent(const MonitorEvent& event, Mcu& mcu) {
  CheckOutcome outcome;
  // Per-event cycle cost for observability: everything the set accrues from
  // the interface crossing to the verdict (monitor bucket, or runtime bucket
  // when inlined). Published with the verdict event.
  const auto busy_now = [&mcu]() {
    return mcu.stats().busy_time[static_cast<int>(CostTag::kMonitor)] +
           mcu.stats().busy_time[static_cast<int>(CostTag::kRuntime)];
  };
  obs::EventBus* const bus = mcu.observer();
  const SimDuration busy_before = bus != nullptr ? busy_now() : 0;
  // Interface-crossing cost depends on where the monitors live: inlined
  // checks pay nothing; remote monitors pay the radio round-trip; the
  // separate component pays the callMonitor call.
  ExecStatus call = ExecStatus::kOk;
  switch (placement_) {
    case MonitorPlacement::kSeparate:
      call = mcu.ExecuteCharge(mcu.charges().monitor_call, CostTag::kMonitor);
      break;
    case MonitorPlacement::kInlined:
      break;
    case MonitorPlacement::kRemote: {
      constexpr RadioProfile kRadio{};
      call = mcu.Execute(kRadio.tx_time, kRadio.tx_power, CostTag::kMonitor);
      if (call == ExecStatus::kOk) {
        call = mcu.Execute(kRadio.rx_time, kRadio.rx_power, CostTag::kMonitor);
      }
      break;
    }
  }
  if (call != ExecStatus::kOk) {
    outcome.status = static_cast<int>(call);
    return outcome;
  }
  // Exactly-once verdicts: a boundary retry after the verdict was computed
  // replays from the cache without re-stepping any monitor. The explicit
  // flag (not a seq sentinel) keeps this correct for an event with seq 0.
  if (has_cached_verdict_ && event.seq == done_seq_) {
    outcome.verdict = cached_verdict_;
    return outcome;
  }

  if (bus != nullptr) {
    // The event has crossed into the monitor component; value = the resume
    // cursor (non-zero when completing an interrupted delivery).
    bus->Publish(obs::Event{.kind = obs::Kind::kMonitorDelivery,
                            .time = mcu.Now(),
                            .true_time = mcu.TrueNow(),
                            .task = event.task,
                            .path = event.path,
                            .seq = event.seq,
                            .value = static_cast<double>(continuation_.InProgress() ? 1 : 0),
                            .energy_fraction = event.energy_fraction,
                            .detail = EventKindName(event.kind)});
  }

  std::size_t next = continuation_.Begin(event.seq);
  if (next == 0) {
    pending_.clear();
  }
  // Completes monitors up to `end`, durably: steps the ones that react to
  // the event and moves the cursor past all of them. Only monitors whose
  // charge completed are completed; charging a run before stepping it is
  // safe because Monitor::Step reads the event and the machine's own state,
  // never the Mcu. A monitor that cannot react would leave its state as it
  // is, so not stepping it changes nothing.
  const std::size_t column = std::min<std::size_t>(event.task, tasks_) * 2 +
                             static_cast<std::size_t>(event.kind);
  const std::uint32_t* const reactors = reactors_.data();
  const std::uint32_t* const reactors_end = reactors + column_begin_[column + 1];
  const std::uint32_t* reactor =
      std::lower_bound(reactors + column_begin_[column], reactors_end, next);
  MonitorVerdict failure;
  const auto step_to = [&](std::size_t end) {
    for (; reactor != reactors_end && *reactor < end; ++reactor) {
      if (monitors_[*reactor]->Step(event, &failure)) {
        pending_.push_back(failure);
      }
    }
    continuation_.CompleteSteps(static_cast<std::uint32_t>(end - next));
    next = end;
  };
  if (placement_ == MonitorPlacement::kRemote) {
    // Remote checks run on the external device and cost the local MCU
    // nothing beyond the radio.
    step_to(monitors_.size());
  } else {
    // Inlined checks are runtime time.
    const CostTag step_tag =
        placement_ == MonitorPlacement::kInlined ? CostTag::kRuntime : CostTag::kMonitor;
    const RunStatus charged = mcu.ExecuteChargeRun(StepCharge(backend_, mcu.charges()),
                                                   step_tag, monitors_.size() - next);
    step_to(next + charged.done);
    if (charged.status != ExecStatus::kOk) {
      // Power failed before monitor `next` durably consumed the event; the
      // continuation cursor still points at it, so the re-delivered event
      // resumes there.
      outcome.status = static_cast<int>(charged.status);
      return outcome;
    }
  }

  MonitorVerdict verdict;
  if (!pending_.empty()) {
    verdict = Arbitrate(pending_, ArbitrationPolicy::kSeverity);
  }
  if (verdict.violated()) {
    ++violations_reported_;
  }
  if (bus != nullptr) {
    // Arbitration outcome: value = how many monitors reported a failure on
    // this event (the candidates), duration = the per-event cycle cost.
    obs::Event out{.kind = obs::Kind::kMonitorVerdict,
                   .time = mcu.Now(),
                   .true_time = mcu.TrueNow(),
                   .task = event.task,
                   .path = event.path,
                   .seq = event.seq,
                   .duration = busy_now() - busy_before,
                   .value = static_cast<double>(pending_.size()),
                   .energy_fraction = event.energy_fraction,
                   .detail = std::string(verdict.property)};
    if (verdict.violated()) {
      out.action = ActionTypeName(verdict.action);
    }
    bus->Publish(out);
  }
  // Black-box the violation before retiring the event: the continuation
  // cursor is still at the end and the verdict cache is not yet written, so
  // if the append dies the re-delivered event re-arbitrates the same verdict
  // from the persisted pending_ set and retries the append.
  if (flight_ != nullptr && verdict.violated() &&
      !flight_->AppendVerdict(event.seq, event.task,
                              static_cast<std::uint8_t>(verdict.action),
                              verdict.target_path)) {
    outcome.status = static_cast<int>(ExecStatus::kPowerFailure);
    return outcome;
  }
  pending_.clear();
  continuation_.Finish();
  done_seq_ = event.seq;
  has_cached_verdict_ = true;
  cached_verdict_ = verdict;
  retired_.clear();
  ++events_processed_;
  outcome.verdict = verdict;
  return outcome;
}

void MonitorSet::OnPathRestart(PathId path, Mcu& mcu) {
  const CostTag tag =
      placement_ == MonitorPlacement::kInlined ? CostTag::kRuntime : CostTag::kMonitor;
  mcu.ExecuteCharge(mcu.charges().action_apply, tag);
  for (const auto& monitor : monitors_) {
    monitor->OnPathRestart(path);
  }
  if (obs::EventBus* const bus = mcu.observer(); bus != nullptr) {
    bus->Publish(obs::Event{.kind = obs::Kind::kMonitorReset,
                            .time = mcu.Now(),
                            .true_time = mcu.TrueNow(),
                            .path = path,
                            .value = static_cast<double>(monitors_.size())});
  }
}

StatusOr<std::unique_ptr<MonitorSet>> BuildMonitorSet(const SpecAst& spec, const AppGraph& graph,
                                                      MonitorBackend backend,
                                                      MonitorPlacement placement) {
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifactFromAst(spec, graph, StageForBackend(backend));
  if (!artifact.ok()) {
    return artifact.status();
  }
  return BuildMonitorSetFromArtifact(artifact.value(), graph, backend, placement);
}

}  // namespace artemis
