// Tests for the checkpointing-class substrate (Section 2 background).
#include <gtest/gtest.h>

#include "src/kernel/checkpoint.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"

namespace artemis {
namespace {

TEST(CheckpointTest, CompletesOnContinuousPower) {
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  const CheckpointProgram program = MakeUniformProgram(10, 10 * kMillisecond, 1.0);
  const CheckpointRunResult result = RunCheckpointed(program, {}, mcu.get());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.checkpoints_taken, 10u);
  EXPECT_EQ(result.reexecuted_work, 0u);
}

TEST(CheckpointTest, SpacingReducesCheckpointCount) {
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  const CheckpointProgram program = MakeUniformProgram(16, kMillisecond, 1.0);
  CheckpointOptions options;
  options.spacing = 4;
  const CheckpointRunResult result = RunCheckpointed(program, options, mcu.get());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.checkpoints_taken, 4u);
}

TEST(CheckpointTest, FinalBlockAlwaysCheckpointed) {
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  // 10 blocks with spacing 4: checkpoints after 4, 8, and the end.
  const CheckpointProgram program = MakeUniformProgram(10, kMillisecond, 1.0);
  CheckpointOptions options;
  options.spacing = 4;
  const CheckpointRunResult result = RunCheckpointed(program, options, mcu.get());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.checkpoints_taken, 3u);
}

TEST(CheckpointTest, ReplaysFromLastSnapshotAfterFailure) {
  // 10 blocks of 0.3 mJ; 2 mJ per on-period: ~6 blocks per period.
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(2'000.0, kSecond));
  const CheckpointProgram program = MakeUniformProgram(10, 50 * kMillisecond, 6.0);
  CheckpointOptions options;
  options.spacing = 2;
  const CheckpointRunResult result = RunCheckpointed(program, options, mcu.get());
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.stats.reboots, 1u);
  // Work was lost (failure between snapshots) but bounded by spacing.
  EXPECT_GT(result.reexecuted_work, 0u);
  EXPECT_LE(result.reexecuted_work,
            result.stats.reboots * 2 * 50 * kMillisecond);
}

TEST(CheckpointTest, SparseSpacingReexecutesMore) {
  CheckpointRunResult dense, sparse;
  {
    auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(2'000.0, kSecond));
    CheckpointOptions options;
    options.spacing = 1;
    dense = RunCheckpointed(MakeUniformProgram(20, 50 * kMillisecond, 6.0), options, mcu.get());
  }
  {
    auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(2'000.0, kSecond));
    CheckpointOptions options;
    options.spacing = 5;
    sparse =
        RunCheckpointed(MakeUniformProgram(20, 50 * kMillisecond, 6.0), options, mcu.get());
  }
  ASSERT_TRUE(dense.completed);
  ASSERT_TRUE(sparse.completed);
  EXPECT_GT(sparse.reexecuted_work, dense.reexecuted_work);
  EXPECT_GT(dense.checkpoints_taken, sparse.checkpoints_taken);
}

TEST(CheckpointTest, UncompletableSpacingTimesOut) {
  // One on-period delivers ~6 blocks; with spacing 64 no snapshot is ever
  // reached, so the program cannot progress.
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(2'000.0, kSecond));
  const CheckpointProgram program = MakeUniformProgram(64, 50 * kMillisecond, 6.0);
  CheckpointOptions options;
  options.spacing = 64;
  options.max_wall_time = 2 * kMinute;
  const CheckpointRunResult result = RunCheckpointed(program, options, mcu.get());
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.timed_out);
}

TEST(CheckpointTest, StarvedDeviceReported) {
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(0.5, kSecond));
  const CheckpointProgram program = MakeUniformProgram(4, 50 * kMillisecond, 6.0);
  const CheckpointRunResult result = RunCheckpointed(program, {}, mcu.get());
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.starved);
}

TEST(CheckpointTest, TotalWorkSumsBlocks) {
  const CheckpointProgram program = MakeUniformProgram(7, 3 * kMillisecond, 1.0);
  EXPECT_EQ(program.TotalWork(), 21 * kMillisecond);
  EXPECT_EQ(program.blocks.size(), 7u);
  EXPECT_EQ(program.blocks[3].name, "block3");
}

TEST(CheckpointTest, SnapshotSizeRaisesOverhead) {
  CheckpointRunResult small, large;
  {
    auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
    small = RunCheckpointed(MakeUniformProgram(32, kMillisecond, 1.0, 128), {}, mcu.get());
  }
  {
    auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
    large = RunCheckpointed(MakeUniformProgram(32, kMillisecond, 1.0, 32768), {}, mcu.get());
  }
  EXPECT_GT(large.stats.busy_time[static_cast<int>(CostTag::kRuntime)],
            small.stats.busy_time[static_cast<int>(CostTag::kRuntime)]);
}

}  // namespace
}  // namespace artemis
