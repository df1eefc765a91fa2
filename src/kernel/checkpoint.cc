#include "src/kernel/checkpoint.h"

namespace artemis {

SimDuration CheckpointProgram::TotalWork() const {
  SimDuration total = 0;
  for (const CodeBlock& block : blocks) {
    total += block.duration;
  }
  return total;
}

CheckpointRunResult RunCheckpointed(const CheckpointProgram& program,
                                    const CheckpointOptions& options, Mcu* mcu) {
  CheckpointRunResult result;
  const SimTime start = mcu->TrueNow();
  const std::uint32_t spacing = options.spacing == 0 ? 1 : options.spacing;

  // FRAM-resident: index of the first block not covered by a snapshot.
  std::size_t resume_at = 0;
  mcu->nvm().Allocate(MemOwner::kRuntime, sizeof(resume_at) + program.snapshot_bytes,
                      "checkpoint-area");

  const CycleCharge checkpoint = mcu->charges().Of(
      mcu->costs().kernel_boundary_cycles +
      mcu->costs().nvm_commit_cycles_per_byte * static_cast<double>(program.snapshot_bytes));

  while (resume_at < program.blocks.size()) {
    if (mcu->starved()) {
      result.starved = true;
      break;
    }
    if (options.max_wall_time != 0 && mcu->TrueNow() - start > options.max_wall_time) {
      result.timed_out = true;
      break;
    }
    // Replay from the last snapshot. Everything before `resume_at` is
    // durable; everything after the snapshot re-executes on failure.
    std::size_t block = resume_at;
    bool failed = false;
    SimDuration run_since_snapshot = 0;
    while (block < program.blocks.size()) {
      const CodeBlock& code = program.blocks[block];
      const SimDuration app_before = mcu->stats().busy_time[static_cast<int>(CostTag::kApp)];
      const ExecStatus status = mcu->Execute(code.duration, code.power, CostTag::kApp);
      if (status != ExecStatus::kOk) {
        // Lost: the completed-but-unsnapshotted blocks plus the partial
        // execution of the interrupted block, all of which rerun.
        const SimDuration partial =
            mcu->stats().busy_time[static_cast<int>(CostTag::kApp)] - app_before;
        result.reexecuted_work += run_since_snapshot + partial;
        failed = true;
        break;
      }
      run_since_snapshot += code.duration;
      ++block;
      const bool due = (block - resume_at) % spacing == 0 || block == program.blocks.size();
      if (due) {
        const ExecStatus saved = mcu->ExecuteCharge(checkpoint, CostTag::kRuntime);
        if (saved != ExecStatus::kOk) {
          result.reexecuted_work += run_since_snapshot;
          failed = true;
          break;
        }
        ++result.checkpoints_taken;
        resume_at = block;  // Snapshot commit point.
        run_since_snapshot = 0;
      }
    }
    if (!failed) {
      result.completed = true;
      break;
    }
  }

  result.finished_at = mcu->TrueNow();
  result.stats = mcu->stats();
  return result;
}

CheckpointProgram MakeUniformProgram(std::size_t blocks, SimDuration block_duration,
                                     Milliwatts power, std::size_t snapshot_bytes) {
  CheckpointProgram program;
  program.snapshot_bytes = snapshot_bytes;
  program.blocks.reserve(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    program.blocks.push_back(
        CodeBlock{"block" + std::to_string(i), block_duration, power});
  }
  return program;
}

}  // namespace artemis
