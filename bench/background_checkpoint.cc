// Background substrate bench (Section 2): the checkpoint-spacing trade-off
// in checkpointing-class intermittent systems, and a comparison against the
// task-based kernel on an equivalent workload.
//
// Expected shape: dense checkpoints waste time on snapshots, sparse
// checkpoints waste time re-executing lost work; the best spacing sits in
// between and shifts with the energy budget. The task-based kernel behaves
// like checkpointing at task granularity with data-flow-sized commits.
#include <cstdio>

#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/kernel/checkpoint.h"

using namespace artemis;

namespace {

constexpr std::size_t kBlocks = 64;
constexpr SimDuration kBlockTime = 50 * kMillisecond;
constexpr Milliwatts kBlockPower = 6.0;  // 300 uJ per block.

void SpacingSweep(EnergyUj budget) {
  std::printf("on-period budget %.1f mJ (block = 0.3 mJ):\n", budget / 1000.0);
  std::printf("  %-10s %-14s %-12s %-14s %-12s\n", "spacing", "total time", "checkpoints",
              "re-executed", "energy");
  for (const std::uint32_t spacing : {1u, 2u, 4u, 8u, 16u, 64u}) {
    auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(budget, 2 * kSecond));
    // A 16 KB snapshot (full SRAM-class state): checkpointing is no longer
    // free, which is what creates the classic U-shaped trade-off.
    const CheckpointProgram program =
        MakeUniformProgram(kBlocks, kBlockTime, kBlockPower, /*snapshot_bytes=*/16384);
    CheckpointOptions options;
    options.spacing = spacing;
    options.max_wall_time = 4 * kHour;
    const CheckpointRunResult result = RunCheckpointed(program, options, mcu.get());
    std::printf("  %-10u %-14s %-12llu %-14s %-12s\n", spacing,
                result.completed ? FormatDuration(result.finished_at).c_str() : "DNF",
                static_cast<unsigned long long>(result.checkpoints_taken),
                FormatDuration(result.reexecuted_work).c_str(),
                FormatEnergy(result.stats.TotalEnergy()).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Background: checkpointing-class execution (Section 2) ===\n\n");
  // A generous budget tolerates sparse checkpoints; a tight one punishes
  // them with re-execution.
  SpacingSweep(/*budget=*/6'000.0);   // ~20 blocks per on-period.
  SpacingSweep(/*budget=*/1'500.0);   // ~5 blocks per on-period.

  // The same workload as a task-based application (one task per 4 blocks).
  AppGraph graph;
  std::vector<TaskId> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back(graph.AddTask(TaskDef{
        .name = "chunk" + std::to_string(i),
        .work = {.duration = 4 * kBlockTime, .power = kBlockPower},
        .effect = nullptr,
        .monitored_var = std::nullopt,
    }));
  }
  graph.AddPath(tasks);
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(1'500.0, 2 * kSecond));
  NullChecker checker;
  KernelOptions options;
  options.max_wall_time = 4 * kHour;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), options);
  const KernelRunResult result = kernel.Run();
  std::printf("task-based kernel, same workload at 4-block task granularity, 1.5 mJ:\n");
  std::printf("  total %s, reboots %llu, energy %s\n",
              result.completed ? FormatDuration(result.finished_at).c_str() : "DNF",
              static_cast<unsigned long long>(result.stats.reboots),
              FormatEnergy(result.stats.TotalEnergy()).c_str());
  std::printf("\nshape: dense checkpoints pay snapshot overhead, sparse ones pay\n"
              "re-execution; tight budgets shift the optimum toward denser spacing, and\n"
              "spacing beyond the per-period budget never completes.\n");
  return 0;
}
