// Crash-consistency torture test for the flight recorder: a power failure
// at EVERY charge boundary inside an append must leave the ring decodable
// as a truncated-but-valid log, and the recorder must keep working after
// the simulated reboot.
//
// Granularity: a record's payload, terminator and seal writes are charged
// through the FlightPort as one run, one write at a time and in that
// order, before any of them is written; the record is written only when
// the whole run was charged. A power failure at any cycle offset inside a
// write's charge is therefore observationally identical to failing that
// charge, at the same offset as when each byte was charged and written in
// turn. The torture port fails the run at a given write, so iterating over
// charge indices covers every cycle offset an append spans.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/flight/decoder.h"
#include "src/flight/forensics.h"
#include "src/flight/recorder.h"
#include "src/obs/bus.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"

namespace artemis::flight {
namespace {

// Succeeds the first `fail_at` charges, then fails every charge until the
// caller "refuels" by raising the threshold — modelling a dead capacitor
// that stays dead for the rest of the on-period.
class TorturePort : public FlightPort {
 public:
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

// Fills `recorder` with `count` task-start records (seq = 0..count-1,
// time = 1000 + seq); returns the seq of the last prelude record.
std::uint64_t RunPrelude(FlightRecorder* recorder, TorturePort* port, int count) {
  for (int i = 0; i < count; ++i) {
    port->now = static_cast<SimTime>(1000 + i);
    EXPECT_TRUE(recorder->AppendTaskStart(static_cast<std::uint64_t>(i), 1, 1, 1));
  }
  return static_cast<std::uint64_t>(count - 1);
}

// Runs the whole torture matrix for one ring configuration: measures how
// many charges the probe append costs, then replays it with the power
// failing at every single charge offset.
void TortureAppendAtEveryOffset(std::size_t capacity, int prelude_count) {
  // Baseline: count the charges the probe append spends when power holds.
  std::uint64_t total_charges = 0;
  {
    TorturePort port;
    FlightRecorder recorder(capacity, FlightLevel::kFull);
    recorder.set_port(&port);
    RunPrelude(&recorder, &port, prelude_count);
    const std::uint64_t before = port.charges_done;
    port.now = 5000;
    ASSERT_TRUE(recorder.AppendCommit(1000, 2, 64));
    total_charges = port.charges_done - before;
  }
  ASSERT_GT(total_charges, 0u);

  for (std::uint64_t k = 0; k <= total_charges; ++k) {
    TorturePort port;
    FlightRecorder recorder(capacity, FlightLevel::kFull);
    recorder.set_port(&port);
    const std::uint64_t last_prelude_seq = RunPrelude(&recorder, &port, prelude_count);

    port.fail_at = port.charges_done + k;
    port.now = 5000;
    const bool appended = recorder.AppendCommit(1000, 2, 64);
    EXPECT_EQ(appended, k == total_charges) << "offset " << k;

    // The ring must decode cleanly no matter where the power died.
    StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(recorder.Image());
    ASSERT_TRUE(decoded.ok()) << "offset " << k << ": " << decoded.status().ToString();
    ASSERT_FALSE(decoded.value().empty()) << "offset " << k;
    // Evictions only ever reclaim from the head, and the seal is the last
    // write: an aborted append leaves exactly a contiguous tail of the
    // prelude; a completed one appends the probe record after it.
    if (appended) {
      EXPECT_EQ(decoded.value().back().kind, RecordKind::kCommit) << "offset " << k;
      EXPECT_EQ(decoded.value().back().seq, 1000u);
      EXPECT_EQ(decoded.value().back().time, 5000u);
    } else {
      EXPECT_EQ(decoded.value().back().seq, last_prelude_seq) << "offset " << k;
    }
    const std::size_t probe = appended ? decoded.value().size() - 1 : decoded.value().size();
    for (std::size_t i = 0; i + 1 < probe; ++i) {
      EXPECT_EQ(decoded.value()[i + 1].seq, decoded.value()[i].seq + 1) << "offset " << k;
      EXPECT_EQ(decoded.value()[i + 1].time, decoded.value()[i].time + 1) << "offset " << k;
    }

    // Power restored: the recorder must accept a fresh boot epoch and keep
    // appending on top of whatever the crash left behind.
    port.Refuel();
    recorder.NoteReboot();
    port.now = 6000;
    ASSERT_TRUE(recorder.AppendBoot()) << "offset " << k;
    ASSERT_TRUE(recorder.AppendTaskEnd(2000, 2, 1)) << "offset " << k;
    decoded = DecodeRing(recorder.Image());
    ASSERT_TRUE(decoded.ok()) << "offset " << k << ": " << decoded.status().ToString();
    ASSERT_GE(decoded.value().size(), 2u);
    EXPECT_EQ(decoded.value()[decoded.value().size() - 2].kind, RecordKind::kBoot);
    EXPECT_EQ(decoded.value().back().kind, RecordKind::kTaskEnd);
    EXPECT_EQ(decoded.value().back().seq, 2000u);
  }
}

TEST(FlightTortureTest, FreshRingSurvivesFailureAtEveryChargeOffset) {
  // Large ring: no eviction pressure, the append is pure payload + seal.
  TortureAppendAtEveryOffset(/*capacity=*/256, /*prelude_count=*/4);
}

TEST(FlightTortureTest, WrappedRingSurvivesFailureAtEveryChargeOffset) {
  // Tight ring: the prelude wraps it several times, so the probe append has
  // to evict sealed records first and the failure offsets also land inside
  // the reservation phase.
  TortureAppendAtEveryOffset(/*capacity=*/40, /*prelude_count=*/30);
}

TEST(FlightTortureTest, BootAppendSurvivesFailureAtEveryChargeOffset) {
  // The boot record is the one appended *from inside the reboot path*; its
  // abort must not corrupt the ring or the epoch bookkeeping.
  std::uint64_t total_charges = 0;
  {
    TorturePort port;
    FlightRecorder recorder(64, FlightLevel::kFull);
    recorder.set_port(&port);
    RunPrelude(&recorder, &port, 6);
    recorder.NoteReboot();
    const std::uint64_t before = port.charges_done;
    port.now = 9000;
    ASSERT_TRUE(recorder.AppendBoot());
    total_charges = port.charges_done - before;
  }
  for (std::uint64_t k = 0; k <= total_charges; ++k) {
    TorturePort port;
    FlightRecorder recorder(64, FlightLevel::kFull);
    recorder.set_port(&port);
    RunPrelude(&recorder, &port, 6);
    recorder.NoteReboot();
    port.fail_at = port.charges_done + k;
    port.now = 9000;
    const bool appended = recorder.AppendBoot();
    EXPECT_EQ(appended, k == total_charges) << "offset " << k;
    EXPECT_EQ(recorder.boot_recorded(), appended) << "offset " << k;
    StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(recorder.Image());
    ASSERT_TRUE(decoded.ok()) << "offset " << k << ": " << decoded.status().ToString();
    // A lost boot record surfaces as an epoch gap, never as corruption: the
    // next epoch's boot still appends cleanly.
    port.Refuel();
    recorder.NoteReboot();
    ASSERT_TRUE(recorder.AppendBoot()) << "offset " << k;
    decoded = DecodeRing(recorder.Image());
    ASSERT_TRUE(decoded.ok()) << "offset " << k;
    EXPECT_EQ(decoded.value().back().kind, RecordKind::kBoot);
    EXPECT_EQ(decoded.value().back().epoch, 2u);
  }
}

// End-to-end: the health app on the real simulated platform, with reboots
// interrupting appends wherever the energy budget dictates. The recovered
// log must decode cleanly and every record must match the omniscient
// obs-bus capture of the same run.
TEST(FlightTortureTest, HealthAppUnderOutagesDecodesAndAudits) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(19'500.0, 6 * kMinute - 1 * kSecond));
  FlightRecorder recorder(1024, FlightLevel::kFull);
  ASSERT_TRUE(mcu->AttachFlightRecorder(&recorder).ok());

  obs::EventBus bus;
  obs::CollectingSink capture;
  bus.AddSink(&capture);
  mcu->set_observer(&bus);

  ArtemisConfig config;
  config.kernel.max_wall_time = 12 * kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
  bus.Flush();

  EXPECT_GT(mcu->stats().reboots, 0u);
  EXPECT_GT(recorder.stats().records_sealed, 0u);

  StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(recorder.Image());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.value().empty());

  const AuditReport report = Audit(decoded.value(), capture.events());
  EXPECT_TRUE(report.ok()) << RenderAudit(report, FlightMeta{});
  EXPECT_EQ(report.checked, decoded.value().size());
}

}  // namespace
}  // namespace artemis::flight
