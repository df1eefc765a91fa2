// Crash-consistency torture test for the monitor hot swap: a power failure
// at EVERY charge boundary inside the swap window must leave the device on
// exactly one of the two images — the old one (torn attempt, swap still
// pending) or the new one (commit byte sealed) — with the migrated state
// intact in either case.
//
// Granularity argument (same as tests/flight_torture_test.cc): every NVM
// byte the swap stages, and every flight-record byte the seal-commit path
// writes, is charged through a port *before* it is written. A power failure
// at any cycle offset is therefore observationally identical to failing
// that charge, so iterating over charge indices covers every cycle offset
// the swap window spans.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/health_app.h"
#include "src/flight/decoder.h"
#include "src/flight/recorder.h"
#include "src/monitor/compiled.h"
#include "src/monitor/shared_spec.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"

namespace artemis {
namespace {

// Succeeds the first `fail_at` charges, then fails every charge until the
// caller refuels — a dead capacitor that stays dead for the on-period. One
// counter serves both seams so flight-record charges (the seal-commit path)
// and swap staging charges share the same failure schedule, exactly as they
// share the same capacitor on the device.
class TortureSwapPort : public SwapPort, public flight::FlightPort {
 public:
  // SwapPort
  bool ChargeStageByte() override { return Charge(); }
  bool ChargeControl() override { return Charge(); }
  // flight::FlightPort
  bool ChargeRecordBuild() override { return Charge(); }
  std::size_t ChargeWriteBytes(std::size_t count) override {
    std::size_t done = 0;
    while (done < count && Charge()) {
      ++done;
    }
    return done;
  }
  bool ChargeControlWrite() override { return Charge(); }
  SimTime DeviceNow() override { return now; }

  void Refuel() { fail_at = ~std::uint64_t{0}; }

  std::uint64_t charges_done = 0;
  std::uint64_t fail_at = ~std::uint64_t{0};
  SimTime now = 0;

 private:
  bool Charge() {
    if (charges_done >= fail_at) {
      return false;
    }
    ++charges_done;
    return true;
  }
};

// One device under test: a compiled MonitorSet running image v1 with a swap
// to v2 queued. Rebuilt from scratch for every failure offset (a failed
// attempt leaves no resumable cursor by design, but the *test* needs
// identical starting conditions per offset).
struct SwapRig {
  HealthApp app;
  MonitorImage v1;
  MonitorImage v2;
  std::unique_ptr<MonitorSet> set;
  std::unique_ptr<HotSwapController> swap;
};

std::unique_ptr<SwapRig> MakeRig(const std::string& spec1, const std::string& spec2) {
  auto rig = std::make_unique<SwapRig>();
  rig->app = BuildHealthApp();
  StatusOr<MonitorImage> v1 = BuildMonitorImage(spec1, rig->app.graph, 1);
  StatusOr<MonitorImage> v2 = BuildMonitorImage(spec2, rig->app.graph, 2);
  EXPECT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_TRUE(v2.ok()) << v2.status().ToString();
  rig->v1 = v1.value();
  rig->v2 = v2.value();
  StatusOr<std::unique_ptr<MonitorSet>> set =
      BuildMonitorSetFromArtifact(rig->v1.artifact, rig->app.graph, MonitorBackend::kCompiled);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  rig->set = std::move(set.value());
  rig->swap = std::make_unique<HotSwapController>(rig->set.get(), rig->v1, &rig->app.graph);
  EXPECT_TRUE(rig->swap->RequestSwap(rig->v2).ok());
  return rig;
}

int FindMonitor(const MonitorImage& image, const std::string& machine_name) {
  const auto& compiled = image.artifact->compiled;
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    if (compiled[i].name == machine_name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::uint16_t StateIdOrDie(const CompiledMachine& machine, const std::string& name) {
  for (std::size_t i = 0; i < machine.state_names.size(); ++i) {
    if (machine.state_names[i] == name) {
      return static_cast<std::uint16_t>(i);
    }
  }
  ADD_FAILURE() << "no state " << name;
  return 0;
}

// Places the named machine's monitor in a live mid-attempt state, as if the
// kernel had delivered events up to this boundary.
void InstallLiveState(SwapRig& rig, const std::string& machine_name, const std::string& state,
                      double slot0) {
  const int idx = FindMonitor(rig.v1, machine_name);
  ASSERT_GE(idx, 0);
  auto& monitor = static_cast<CompiledMonitor&>(rig.set->monitor(idx));
  monitor.InstallMigratedState(StateIdOrDie(rig.v1.artifact->compiled[idx], state), {slot0});
}

std::vector<flight::FlightRecord> SealedSwapRecords(const flight::FlightRecorder& recorder) {
  StatusOr<std::vector<flight::FlightRecord>> decoded = flight::DecodeRing(recorder.Image());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::vector<flight::FlightRecord> swaps;
  if (decoded.ok()) {
    for (const flight::FlightRecord& r : decoded.value()) {
      if (r.kind == flight::RecordKind::kSwapEpoch) {
        swaps.push_back(r);
      }
    }
  }
  return swaps;
}

// Measures the charge count of one full swap window for this spec pair,
// with or without a seal-commit flight recorder of `flight_capacity` bytes
// (0 = no recorder). `prelude_records` pre-fills (and for small rings,
// wraps) the flight ring before the swap so eviction work lands inside the
// torture window too.
std::uint64_t BaselineCharges(const std::string& spec1, const std::string& spec2,
                              std::size_t flight_capacity, int prelude_records) {
  std::unique_ptr<SwapRig> rig = MakeRig(spec1, spec2);
  TortureSwapPort port;
  std::unique_ptr<flight::FlightRecorder> recorder;
  if (flight_capacity > 0) {
    recorder =
        std::make_unique<flight::FlightRecorder>(flight_capacity, flight::FlightLevel::kFull);
    recorder->set_port(&port);
    for (int i = 0; i < prelude_records; ++i) {
      EXPECT_TRUE(recorder->AppendTaskStart(static_cast<std::uint64_t>(i), 1, 1, 1));
    }
  }
  const std::uint64_t before = port.charges_done;
  EXPECT_EQ(rig->swap->TryApply(port, recorder.get()), ExecStatus::kOk);
  return port.charges_done - before;
}

// The core torture matrix: replays one swap window with the power failing
// at every single charge offset, asserting the old-XOR-new invariant at
// each, then refuels and requires the retried swap to commit with the
// migrated state intact.
void TortureSwapAtEveryOffset(const std::string& spec1, const std::string& spec2,
                              std::size_t flight_capacity, int prelude_records,
                              const std::string& live_machine = "",
                              const std::string& live_state = "", double live_slot = 0.0,
                              const std::string& expect_machine = "",
                              const std::string& expect_state = "", double expect_slot = 0.0) {
  const std::uint64_t total =
      BaselineCharges(spec1, spec2, flight_capacity, prelude_records);
  ASSERT_GT(total, 0u);

  for (std::uint64_t k = 0; k <= total; ++k) {
    std::unique_ptr<SwapRig> rig = MakeRig(spec1, spec2);
    TortureSwapPort port;
    std::unique_ptr<flight::FlightRecorder> recorder;
    if (flight_capacity > 0) {
      recorder = std::make_unique<flight::FlightRecorder>(flight_capacity,
                                                          flight::FlightLevel::kFull);
      recorder->set_port(&port);
      for (int i = 0; i < prelude_records; ++i) {
        ASSERT_TRUE(recorder->AppendTaskStart(static_cast<std::uint64_t>(i), 1, 1, 1));
      }
    }
    if (!live_machine.empty()) {
      InstallLiveState(*rig, live_machine, live_state, live_slot);
    }

    port.fail_at = port.charges_done + k;
    const ExecStatus status = rig->swap->TryApply(port, recorder.get());

    // The one invariant that matters: the device is on exactly the old or
    // exactly the new image, never anything in between.
    if (k == total) {
      EXPECT_EQ(status, ExecStatus::kOk) << "offset " << k;
      EXPECT_FALSE(rig->swap->pending()) << "offset " << k;
      EXPECT_EQ(rig->swap->installed().epoch, 2u) << "offset " << k;
      EXPECT_EQ(rig->swap->installed().spec_hash, SpecHash(spec2)) << "offset " << k;
    } else {
      EXPECT_EQ(status, ExecStatus::kPowerFailure) << "offset " << k;
      EXPECT_TRUE(rig->swap->pending()) << "offset " << k;
      EXPECT_EQ(rig->swap->installed().epoch, 1u) << "offset " << k;
      EXPECT_EQ(rig->swap->installed().spec_hash, SpecHash(spec1)) << "offset " << k;
      EXPECT_EQ(rig->swap->stats().attempts_failed, 1u) << "offset " << k;
    }
    // The MonitorSet always matches the installed image's machine count.
    EXPECT_EQ(rig->set->size(), rig->swap->installed_image().artifact->compiled.size())
        << "offset " << k;
    // With the recorder on, the sealed swap-epoch record IS the commit: it
    // exists if and only if the swap applied (no fallback was needed).
    if (recorder != nullptr) {
      const std::vector<flight::FlightRecord> swaps = SealedSwapRecords(*recorder);
      if (k == total) {
        ASSERT_EQ(swaps.size(), 1u) << "offset " << k;
        EXPECT_EQ(swaps[0].old_hash, SpecHash(spec1));
        EXPECT_EQ(swaps[0].new_hash, SpecHash(spec2));
        EXPECT_EQ(swaps[0].image_epoch, 2u);
        EXPECT_EQ(rig->swap->stats().fallback_commits, 0u);
      } else {
        EXPECT_TRUE(swaps.empty()) << "offset " << k;
      }
    }

    // Power restored: the retried attempt re-snapshots the (still old)
    // monitors and must commit.
    port.Refuel();
    if (k < total) {
      EXPECT_EQ(rig->swap->TryApply(port, recorder.get()), ExecStatus::kOk) << "offset " << k;
    }
    EXPECT_EQ(rig->swap->installed().epoch, 2u) << "offset " << k;
    EXPECT_EQ(rig->swap->stats().swaps_applied, 1u) << "offset " << k;
    if (!expect_machine.empty()) {
      const int idx = FindMonitor(rig->swap->installed_image(), expect_machine);
      ASSERT_GE(idx, 0) << "offset " << k;
      const auto& monitor = static_cast<const CompiledMonitor&>(rig->set->monitor(idx));
      EXPECT_EQ(monitor.current_state(), expect_state) << "offset " << k;
      ASSERT_FALSE(monitor.slots().empty()) << "offset " << k;
      EXPECT_DOUBLE_EQ(monitor.slots()[0], expect_slot) << "offset " << k;
    }
  }
}

constexpr char kSpecMic[] = "micSense: { maxTries: 10 onFail: skipPath; }\n";
constexpr char kSpecAccelWithCarry[] =
    "accel: { maxTries: 10 onFail: skipPath; }\n"
    "migrate { machine maxTries_micSense -> maxTries_accel; }\n";

TEST(SwapTortureTest, FreshImageSwapSurvivesFailureAtEveryChargeOffset) {
  // Full health image (8 machines, 80 staged bytes), monitors at their
  // initial states, no flight recorder: the commit is the control byte.
  TortureSwapAtEveryOffset(HealthAppSpec(), HealthAppSpec() + "\n// v2\n",
                           /*flight_capacity=*/0, /*prelude_records=*/0);
}

TEST(SwapTortureTest, MidAttemptLiveStateMigratesAtEveryChargeOffset) {
  // maxTries_micSense is three attempts into its window when the swap
  // lands; whatever offset the power dies at, the committed image must
  // resume from Started with the counter intact.
  TortureSwapAtEveryOffset(HealthAppSpec(), HealthAppSpec() + "\n// v2\n",
                           /*flight_capacity=*/0, /*prelude_records=*/0,
                           /*live_machine=*/"maxTries_micSense", /*live_state=*/"Started",
                           /*live_slot=*/3.0,
                           /*expect_machine=*/"maxTries_micSense",
                           /*expect_state=*/"Started", /*expect_slot=*/3.0);
}

TEST(SwapTortureTest, ExplicitMachineRuleCarriesStateAtEveryChargeOffset) {
  // Renamed machine with an explicit `migrate` mapping: the live counter of
  // maxTries_micSense lands in maxTries_accel, at every failure offset.
  TortureSwapAtEveryOffset(kSpecMic, kSpecAccelWithCarry,
                           /*flight_capacity=*/0, /*prelude_records=*/0,
                           /*live_machine=*/"maxTries_micSense", /*live_state=*/"Started",
                           /*live_slot=*/7.0,
                           /*expect_machine=*/"maxTries_accel",
                           /*expect_state=*/"Started", /*expect_slot=*/7.0);
}

TEST(SwapTortureTest, FlightSealCommitSurvivesFailureAtEveryChargeOffset) {
  // Roomy ring: the swap-epoch record's seal byte is the commit point; a
  // torn append must leave no decodable swap record and the old image.
  TortureSwapAtEveryOffset(HealthAppSpec(), HealthAppSpec() + "\n// v2\n",
                           /*flight_capacity=*/256, /*prelude_records=*/4,
                           /*live_machine=*/"maxTries_micSense", /*live_state=*/"Started",
                           /*live_slot=*/3.0,
                           /*expect_machine=*/"maxTries_micSense",
                           /*expect_state=*/"Started", /*expect_slot=*/3.0);
}

TEST(SwapTortureTest, FlightSealCommitSurvivesOnAWrappedRing) {
  // Tight ring pre-wrapped by the prelude: the swap record has to evict
  // sealed records first, so failure offsets land inside the reservation
  // phase of the commit append too.
  TortureSwapAtEveryOffset(HealthAppSpec(), HealthAppSpec() + "\n// v2\n",
                           /*flight_capacity=*/72, /*prelude_records=*/20);
}

TEST(SwapTortureTest, UndersizedRingFallsBackToControlByteCommit) {
  // A ring too small for the swap-epoch record drops it; the swap must
  // still commit durably via the fallback control byte.
  std::unique_ptr<SwapRig> rig = MakeRig(HealthAppSpec(), HealthAppSpec() + "\n// v2\n");
  TortureSwapPort port;
  flight::FlightRecorder recorder(flight::FlightRecorder::kMinCapacityBytes,
                                  flight::FlightLevel::kFull);
  recorder.set_port(&port);
  ASSERT_EQ(rig->swap->TryApply(port, &recorder), ExecStatus::kOk);
  EXPECT_EQ(rig->swap->installed().epoch, 2u);
  EXPECT_EQ(rig->swap->stats().fallback_commits, 1u);
  EXPECT_TRUE(SealedSwapRecords(recorder).empty());
}

TEST(SwapTortureTest, BackToBackSwapsSurviveAnOutageBetweenAndWithin) {
  // v1 -> v2 commits cleanly, then v2 -> v3 is tortured at every offset:
  // epochs must step 1 -> 2 -> 3 with never a mixed image, and the second
  // swap's migration reads the FIRST swap's migrated state.
  const std::string spec1 = HealthAppSpec();
  const std::string spec2 = HealthAppSpec() + "\n// v2\n";
  const std::string spec3 = HealthAppSpec() + "\n// v3\n";
  HealthApp app = BuildHealthApp();
  StatusOr<MonitorImage> v3 = BuildMonitorImage(spec3, app.graph, 3);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();

  // Baseline: charges spent by the second swap window.
  std::uint64_t total = 0;
  {
    std::unique_ptr<SwapRig> rig = MakeRig(spec1, spec2);
    TortureSwapPort port;
    InstallLiveState(*rig, "maxTries_micSense", "Started", 5.0);
    ASSERT_EQ(rig->swap->TryApply(port, nullptr), ExecStatus::kOk);
    ASSERT_TRUE(rig->swap->RequestSwap(v3.value()).ok());
    const std::uint64_t before = port.charges_done;
    ASSERT_EQ(rig->swap->TryApply(port, nullptr), ExecStatus::kOk);
    total = port.charges_done - before;
  }
  ASSERT_GT(total, 0u);

  for (std::uint64_t k = 0; k <= total; ++k) {
    std::unique_ptr<SwapRig> rig = MakeRig(spec1, spec2);
    TortureSwapPort port;
    InstallLiveState(*rig, "maxTries_micSense", "Started", 5.0);
    ASSERT_EQ(rig->swap->TryApply(port, nullptr), ExecStatus::kOk);
    ASSERT_EQ(rig->swap->installed().epoch, 2u);
    ASSERT_TRUE(rig->swap->RequestSwap(v3.value()).ok());

    port.fail_at = port.charges_done + k;
    const ExecStatus status = rig->swap->TryApply(port, nullptr);
    if (k == total) {
      EXPECT_EQ(status, ExecStatus::kOk) << "offset " << k;
      EXPECT_EQ(rig->swap->installed().epoch, 3u) << "offset " << k;
    } else {
      EXPECT_EQ(status, ExecStatus::kPowerFailure) << "offset " << k;
      EXPECT_EQ(rig->swap->installed().epoch, 2u) << "offset " << k;
      EXPECT_TRUE(rig->swap->pending()) << "offset " << k;
    }

    port.Refuel();
    if (k < total) {
      EXPECT_EQ(rig->swap->TryApply(port, nullptr), ExecStatus::kOk) << "offset " << k;
    }
    EXPECT_EQ(rig->swap->installed().epoch, 3u) << "offset " << k;
    EXPECT_EQ(rig->swap->installed().spec_hash, SpecHash(spec3)) << "offset " << k;
    EXPECT_EQ(rig->swap->stats().swaps_applied, 2u) << "offset " << k;
    // The live counter survived BOTH migrations.
    const int idx = FindMonitor(rig->swap->installed_image(), "maxTries_micSense");
    ASSERT_GE(idx, 0);
    const auto& monitor = static_cast<const CompiledMonitor&>(rig->set->monitor(idx));
    EXPECT_EQ(monitor.current_state(), "Started") << "offset " << k;
    EXPECT_DOUBLE_EQ(monitor.slots()[0], 5.0) << "offset " << k;
  }
}

}  // namespace
}  // namespace artemis
