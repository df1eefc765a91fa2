// Unit tests for the flight-recorder stack: varint codec, record payloads,
// the two-phase ring protocol (wrap, eviction, level gating, boot dedup),
// the host-side decoder, and the NVM-arena registration path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/flight/decoder.h"
#include "src/flight/forensics.h"
#include "src/flight/record.h"
#include "src/flight/recorder.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"

namespace artemis::flight {
namespace {

// A port where every charge succeeds; time is script-controlled.
class FakePort : public FlightPort {
 public:
  bool ChargeRecordBuild() override { return true; }
  std::size_t ChargeWriteBytes(std::size_t count) override { return count; }
  bool ChargeControlWrite() override { return true; }
  SimTime DeviceNow() override { return now; }

  SimTime now = 0;
};

// ---------------------------------------------------------------- codec --

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16'383}, std::uint64_t{16'384}, std::uint64_t{~0ull}}) {
    std::uint8_t bytes[kMaxVarintBytes] = {};
    const std::size_t n = PutVarint(bytes, value);
    std::size_t pos = 0;
    std::uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(bytes, n, &pos, &decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(pos, n);
  }
}

TEST(VarintTest, RejectsTruncation) {
  std::uint8_t bytes[kMaxVarintBytes] = {};
  const std::size_t n = PutVarint(bytes, 1'000'000);
  std::size_t pos = 0;
  std::uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint(bytes, n - 1, &pos, &decoded));
}

TEST(ZigZagTest, RoundTripsNegativeDeltas) {
  for (const std::int64_t value : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                                   std::int64_t{-123456}, std::int64_t{123456}}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
}

// Field-by-field equality of two decoded records.
void ExpectSameRecord(const FlightRecord& want, const FlightRecord& got,
                      const std::string& where) {
  EXPECT_EQ(got.kind, want.kind) << where;
  EXPECT_EQ(got.time, want.time) << where;
  EXPECT_EQ(got.epoch, want.epoch) << where;
  EXPECT_EQ(got.seq, want.seq) << where;
  EXPECT_EQ(got.task, want.task) << where;
  EXPECT_EQ(got.path, want.path) << where;
  EXPECT_EQ(got.attempt, want.attempt) << where;
  EXPECT_EQ(got.bytes, want.bytes) << where;
  EXPECT_EQ(got.action, want.action) << where;
  EXPECT_EQ(got.target_path, want.target_path) << where;
  EXPECT_EQ(got.fraction_milli, want.fraction_milli) << where;
  EXPECT_EQ(got.old_hash, want.old_hash) << where;
  EXPECT_EQ(got.new_hash, want.new_hash) << where;
  EXPECT_EQ(got.image_epoch, want.image_epoch) << where;
}

TEST(RecordCodecTest, RoundTripsEveryKind) {
  const SimTime base = 10'000;
  std::vector<FlightRecord> samples;
  {
    FlightRecord r;
    r.kind = RecordKind::kBoot;
    r.time = 12'345;
    r.epoch = 7;
    samples.push_back(r);
  }
  {
    FlightRecord r;
    r.kind = RecordKind::kTaskStart;
    r.time = 9'000;  // Regression vs base: zigzag delta must survive.
    r.seq = 42;
    r.task = 3;
    r.path = 2;
    r.attempt = 5;
    samples.push_back(r);
  }
  {
    FlightRecord r;
    r.kind = RecordKind::kTaskEnd;
    r.time = 10'001;
    r.seq = 43;
    r.task = 3;
    r.path = 2;
    samples.push_back(r);
  }
  {
    FlightRecord r;
    r.kind = RecordKind::kCommit;
    r.time = 10'002;
    r.seq = 44;
    r.task = 1;
    r.bytes = 4'096;
    samples.push_back(r);
  }
  {
    FlightRecord r;
    r.kind = RecordKind::kVerdict;
    r.time = 10'003;
    r.seq = 45;
    r.task = 6;
    r.action = 3;
    r.target_path = 2;
    samples.push_back(r);
  }
  {
    FlightRecord r;
    r.kind = RecordKind::kChargeSnapshot;
    r.time = 10'004;
    r.epoch = 7;
    r.fraction_milli = 875;
    samples.push_back(r);
  }
  for (const FlightRecord& sample : samples) {
    PayloadBuffer payload{};
    const std::size_t n = EncodePayload(sample, base, &payload);
    ASSERT_GT(n, 0u);
    ASSERT_LE(n, kWorstCasePayloadBytes);
    FlightRecord decoded;
    ASSERT_TRUE(DecodePayload(payload.data(), n, base, &decoded))
        << RecordKindName(sample.kind);
    ExpectSameRecord(sample, decoded, RecordKindName(sample.kind));
  }
}

// Every append encodes into a kWorstCasePayloadBytes buffer, so that number
// (also ART014's) must bound every kind's longest encoding: all fields at
// their maximum and time deltas of -2^63 and +2^63 - 1.
TEST(RecordCodecTest, WorstCaseEncodingFitsThePayloadBuffer) {
  constexpr std::uint64_t kU64 = ~std::uint64_t{0};
  constexpr std::uint32_t kU32 = ~std::uint32_t{0};
  constexpr SimTime kHalf = SimTime{1} << 63;
  // (time, delta base) pairs; the first four take a 10-byte zigzag delta.
  const std::pair<SimTime, SimTime> kTimes[] = {
      {kHalf, 0}, {0, kHalf}, {kHalf - 1, 0}, {0, kHalf - 1}, {kU64, 0}};
  std::uint8_t varint[kMaxVarintBytes] = {};
  EXPECT_EQ(PutVarint(varint, kU64), kMaxVarintBytes);

  std::size_t longest_overall = 0;
  for (std::uint8_t kind = static_cast<std::uint8_t>(RecordKind::kBoot);
       IsValidRecordKind(kind); ++kind) {
    std::size_t longest = 0;
    for (const auto& [time, base] : kTimes) {
      FlightRecord r;
      r.kind = static_cast<RecordKind>(kind);
      r.time = time;
      r.epoch = kU32;
      r.seq = kU64;
      r.task = kU32;
      r.path = kU32;
      r.attempt = kU32;
      r.bytes = kU64;
      r.action = 0xff;
      r.target_path = kU32;
      r.fraction_milli = kU32;
      r.old_hash = kU64;
      r.new_hash = kU64;
      r.image_epoch = kU32;
      PayloadBuffer payload{};
      const std::size_t n = EncodePayload(r, base, &payload);
      ASSERT_LE(n, kWorstCasePayloadBytes) << RecordKindName(r.kind);
      longest = std::max(longest, n);
      FlightRecord decoded;
      ASSERT_TRUE(DecodePayload(payload.data(), n, base, &decoded)) << RecordKindName(r.kind);
      EXPECT_EQ(decoded.time, time) << RecordKindName(r.kind);
    }
    const RecordKind k = static_cast<RecordKind>(kind);
    if (k == RecordKind::kTaskStart || k == RecordKind::kCommit ||
        k == RecordKind::kSwapEpoch) {
      EXPECT_EQ(longest, kWorstCasePayloadBytes) << RecordKindName(k);
    }
    longest_overall = std::max(longest_overall, longest);
  }
  EXPECT_EQ(longest_overall, kWorstCasePayloadBytes);
}

TEST(RecordCodecTest, RejectsTrailingGarbage) {
  FlightRecord r;
  r.kind = RecordKind::kTaskEnd;
  r.time = 5;
  r.seq = 1;
  PayloadBuffer payload{};
  const std::size_t n = EncodePayload(r, 0, &payload);
  payload[n] = 0x00;
  FlightRecord decoded;
  EXPECT_FALSE(DecodePayload(payload.data(), n + 1, 0, &decoded));
}

TEST(RecordCodecTest, RejectsUnknownKind) {
  const std::uint8_t bogus[] = {0x7f, 0x00};
  FlightRecord decoded;
  EXPECT_FALSE(DecodePayload(bogus, sizeof(bogus), 0, &decoded));
}

// ------------------------------------------------------------- recorder --

TEST(FlightRecorderTest, AppendsAndDecodesInOrder) {
  FakePort port;
  FlightRecorder recorder(256, FlightLevel::kFull);
  recorder.set_port(&port);
  recorder.NoteReboot();
  EXPECT_TRUE(recorder.AppendBoot());
  port.now = 100;
  EXPECT_TRUE(recorder.AppendTaskStart(1, 2, 1, 1));
  port.now = 180;
  EXPECT_TRUE(recorder.AppendCommit(1, 2, 64));
  port.now = 200;
  EXPECT_TRUE(recorder.AppendTaskEnd(2, 2, 1));

  StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(recorder.Image());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), 4u);
  EXPECT_EQ(decoded.value()[0].kind, RecordKind::kBoot);
  EXPECT_EQ(decoded.value()[0].epoch, 1u);
  EXPECT_EQ(decoded.value()[1].kind, RecordKind::kTaskStart);
  EXPECT_EQ(decoded.value()[1].time, 100u);
  EXPECT_EQ(decoded.value()[2].kind, RecordKind::kCommit);
  EXPECT_EQ(decoded.value()[2].bytes, 64u);
  EXPECT_EQ(decoded.value()[3].kind, RecordKind::kTaskEnd);
  EXPECT_EQ(decoded.value()[3].time, 200u);
  EXPECT_EQ(recorder.stats().records_sealed, 4u);
  EXPECT_EQ(recorder.stats().appends_aborted, 0u);
}

TEST(FlightRecorderTest, WrapEvictsOldestAndStaysDecodable) {
  FakePort port;
  FlightRecorder recorder(48, FlightLevel::kFull);
  recorder.set_port(&port);
  const int kAppends = 200;
  for (int i = 0; i < kAppends; ++i) {
    port.now = static_cast<SimTime>(1000 + i);
    ASSERT_TRUE(recorder.AppendTaskStart(static_cast<std::uint64_t>(i), 1, 1, 1));
  }
  EXPECT_GT(recorder.stats().records_evicted, 0u);
  EXPECT_EQ(recorder.stats().records_sealed, static_cast<std::uint64_t>(kAppends));

  StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(recorder.Image());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_FALSE(decoded.value().empty());
  // The survivors are the newest contiguous suffix, with absolute times
  // reconstructed correctly across the eviction boundary.
  const std::uint64_t first_seq = decoded.value().front().seq;
  for (std::size_t i = 0; i < decoded.value().size(); ++i) {
    EXPECT_EQ(decoded.value()[i].seq, first_seq + i);
    EXPECT_EQ(decoded.value()[i].time, 1000 + first_seq + i);
  }
  EXPECT_EQ(decoded.value().back().seq, static_cast<std::uint64_t>(kAppends - 1));
}

// The i-th record of a script that mixes every kind and record length,
// jumps the clock backwards (a drifting timekeeper after an outage) and
// reboots every 23 appends. Fields a kind does not carry stay 0, as the
// decoder leaves them.
FlightRecord ScriptedRecord(int i, SimTime* clock) {
  *clock += 250 + static_cast<SimTime>(i % 5) * 1'000;
  if (i % 7 == 3) {
    *clock -= 6'000;
  }
  FlightRecord r;
  r.time = *clock;
  const auto u = static_cast<std::uint32_t>(i);
  if (i % 23 == 0) {
    r.kind = RecordKind::kBoot;
    *clock = i % 46 == 0 ? *clock + 90'000'000 : *clock - 40'000;
    r.time = *clock;
    return r;
  }
  switch (i % 6) {
    case 0:
      r.kind = RecordKind::kTaskStart;
      r.seq = u;
      r.task = u % 8;
      r.path = 1 + u % 3;
      r.attempt = 1 + u % 4;
      break;
    case 1:
      r.kind = RecordKind::kTaskEnd;
      r.seq = u;
      r.task = u % 8;
      r.path = 1 + u % 3;
      break;
    case 2:
      r.kind = RecordKind::kCommit;
      r.seq = u;
      r.task = u % 8;
      r.bytes = (std::uint64_t{u} * 37) % 5'000;
      break;
    case 3:
      r.kind = RecordKind::kVerdict;
      r.seq = u;
      r.task = u % 8;
      r.action = static_cast<std::uint8_t>(u % 6);
      r.target_path = u % 3;
      break;
    case 4:
      r.kind = RecordKind::kChargeSnapshot;
      r.fraction_milli = (u * 131) % 1'001;
      break;
    default:
      r.kind = RecordKind::kSwapEpoch;
      r.old_hash = 0x9e3779b97f4a7c15ULL * u;
      r.new_hash = 0xc2b2ae3d27d4eb4fULL * (u + 1);
      r.image_epoch = u;
      break;
  }
  return r;
}

// Appends `r` through the matching entry point; returns true if it sealed.
// Boot and charge-snapshot records take their epoch from the recorder.
bool AppendScripted(FlightRecorder* recorder, FakePort* port, FlightRecord* r) {
  port->now = r->time;
  const std::uint64_t sealed = recorder->stats().records_sealed;
  switch (r->kind) {
    case RecordKind::kBoot:
      recorder->NoteReboot();
      r->epoch = recorder->current_epoch();
      EXPECT_TRUE(recorder->AppendBoot());
      break;
    case RecordKind::kTaskStart:
      EXPECT_TRUE(recorder->AppendTaskStart(r->seq, r->task, r->path, r->attempt));
      break;
    case RecordKind::kTaskEnd:
      EXPECT_TRUE(recorder->AppendTaskEnd(r->seq, r->task, r->path));
      break;
    case RecordKind::kCommit:
      EXPECT_TRUE(recorder->AppendCommit(r->seq, r->task, r->bytes));
      break;
    case RecordKind::kVerdict:
      EXPECT_TRUE(recorder->AppendVerdict(r->seq, r->task, r->action, r->target_path));
      break;
    case RecordKind::kChargeSnapshot:
      r->epoch = recorder->current_epoch();
      EXPECT_TRUE(recorder->AppendChargeSnapshot(r->fraction_milli / 1000.0));
      break;
    case RecordKind::kSwapEpoch:
      EXPECT_TRUE(recorder->AppendSwapEpoch(r->old_hash, r->new_hash, r->image_epoch));
      break;
  }
  return recorder->stats().records_sealed > sealed;
}

// Eviction reads only the evicted record's time from the ring to advance
// the head's delta base. After every append the ring must decode to the
// newest suffix of the sealed records, exactly — across evicted boot
// records, backwards clock jumps and records that straddle the wrap point.
TEST(FlightRecorderTest, EvictionKeepsTimeBaseAcrossBootsJumpsAndWraps) {
  for (const std::size_t capacity : {16, 40, 48, 97}) {
    FakePort port;
    FlightRecorder recorder(capacity, FlightLevel::kFull);
    recorder.set_port(&port);
    std::vector<FlightRecord> sealed;
    SimTime clock = 10'000'000;
    int straddled = 0;
    for (int i = 0; i < 400; ++i) {
      FlightRecord r = ScriptedRecord(i, &clock);
      if (AppendScripted(&recorder, &port, &r)) {
        sealed.push_back(r);
      }
      const RingImage image = recorder.Image();
      StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(image);
      const std::string where =
          "capacity " + std::to_string(capacity) + " append " + std::to_string(i);
      ASSERT_TRUE(decoded.ok()) << where << ": " << decoded.status().ToString();
      ASSERT_FALSE(decoded.value().empty()) << where;
      ASSERT_LE(decoded.value().size(), sealed.size()) << where;
      const std::size_t offset = sealed.size() - decoded.value().size();
      for (std::size_t k = 0; k < decoded.value().size(); ++k) {
        ExpectSameRecord(sealed[offset + k], decoded.value()[k],
                         where + " record " + std::to_string(k));
      }
      // Count sealed records whose bytes run past the ring's end.
      for (std::size_t pos = image.head, k = 0; k < decoded.value().size(); ++k) {
        const std::size_t len = image.bytes[pos];
        straddled += pos + 1 + len > capacity ? 1 : 0;
        pos = (pos + 1 + len) % capacity;
      }
    }
    const std::size_t survivors = DecodeRing(recorder.Image()).value().size();
    const auto evicted_boots = std::count_if(
        sealed.begin(), sealed.end() - static_cast<std::ptrdiff_t>(survivors),
        [](const FlightRecord& r) { return r.kind == RecordKind::kBoot; });
    EXPECT_GT(evicted_boots, 0) << "capacity " << capacity;
    EXPECT_GT(straddled, 0) << "capacity " << capacity;
    EXPECT_GT(recorder.stats().records_evicted, 0u) << "capacity " << capacity;
  }
}

TEST(FlightRecorderTest, LevelGatesRecordKinds) {
  FakePort port;
  FlightRecorder verdicts_only(256, FlightLevel::kVerdictsOnly);
  verdicts_only.set_port(&port);
  EXPECT_TRUE(verdicts_only.AppendBoot());
  EXPECT_TRUE(verdicts_only.AppendTaskStart(1, 1, 1, 1));  // filtered, not an error
  EXPECT_TRUE(verdicts_only.AppendCommit(1, 1, 8));
  EXPECT_TRUE(verdicts_only.AppendChargeSnapshot(0.5));
  EXPECT_TRUE(verdicts_only.AppendVerdict(2, 1, 1, 0));
  StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(verdicts_only.Image());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].kind, RecordKind::kBoot);
  EXPECT_EQ(decoded.value()[1].kind, RecordKind::kVerdict);

  FlightRecorder off(256, FlightLevel::kOff);
  off.set_port(&port);
  EXPECT_TRUE(off.AppendBoot());
  EXPECT_TRUE(off.AppendVerdict(1, 1, 1, 0));
  EXPECT_EQ(off.stats().records_sealed, 0u);
}

TEST(FlightRecorderTest, BootRecordDedupedPerEpoch) {
  FakePort port;
  FlightRecorder recorder(256, FlightLevel::kFull);
  recorder.set_port(&port);
  EXPECT_TRUE(recorder.AppendBoot());
  EXPECT_TRUE(recorder.AppendBoot());  // same epoch: no-op
  recorder.NoteReboot();
  EXPECT_TRUE(recorder.AppendBoot());
  StatusOr<std::vector<FlightRecord>> decoded = DecodeRing(recorder.Image());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].epoch, 0u);
  EXPECT_EQ(decoded.value()[1].epoch, 1u);
}

TEST(FlightRecorderTest, MinimumCapacityClamped) {
  FakePort port;
  FlightRecorder recorder(1, FlightLevel::kFull);
  recorder.set_port(&port);
  EXPECT_EQ(recorder.capacity(), FlightRecorder::kMinCapacityBytes);
  EXPECT_TRUE(recorder.AppendBoot());
  EXPECT_EQ(recorder.stats().records_sealed, 1u);
}

TEST(FlightLevelTest, ParsesNames) {
  FlightLevel level = FlightLevel::kOff;
  EXPECT_TRUE(ParseFlightLevel("off", &level));
  EXPECT_EQ(level, FlightLevel::kOff);
  EXPECT_TRUE(ParseFlightLevel("verdicts", &level));
  EXPECT_EQ(level, FlightLevel::kVerdictsOnly);
  EXPECT_TRUE(ParseFlightLevel("full", &level));
  EXPECT_EQ(level, FlightLevel::kFull);
  EXPECT_FALSE(ParseFlightLevel("loud", &level));
  EXPECT_STREQ(FlightLevelName(FlightLevel::kVerdictsOnly), "verdicts");
}

// ------------------------------------------------- arena registration --

TEST(FlightAttachTest, RegistersRingWithNvmArena) {
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(1e9, kSecond), DefaultCostModel());
  FlightRecorder recorder(1024, FlightLevel::kFull);
  const std::size_t before = mcu->nvm().used();
  ASSERT_TRUE(mcu->AttachFlightRecorder(&recorder).ok());
  EXPECT_GE(mcu->nvm().used() - before, 1024u);
  EXPECT_EQ(mcu->flight_recorder(), &recorder);
  ASSERT_TRUE(mcu->AttachFlightRecorder(nullptr).ok());
  EXPECT_EQ(mcu->flight_recorder(), nullptr);
}

// Satellite: an oversized ring budget surfaces the arena's structured
// exhaustion error, naming the subsystem and the remaining bytes.
TEST(FlightAttachTest, OversizedRingReportsStructuredExhaustion) {
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(1e9, kSecond), DefaultCostModel());
  FlightRecorder recorder(512 * 1024, FlightLevel::kFull);  // > 256 KB FRAM
  const Status status = mcu->AttachFlightRecorder(&recorder);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("flight-recorder"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("flight"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("remaining"), std::string::npos) << status.message();
  EXPECT_EQ(mcu->flight_recorder(), nullptr);  // failed attach leaves no port
}

// ------------------------------------------------------------ forensics --

TEST(ForensicsTest, ActionCodeNamesMatchKernelTable) {
  EXPECT_STREQ(ActionCodeName(0), "none");
  EXPECT_STREQ(ActionCodeName(1), "restartTask");
  EXPECT_STREQ(ActionCodeName(2), "skipTask");
  EXPECT_STREQ(ActionCodeName(3), "restartPath");
  EXPECT_STREQ(ActionCodeName(4), "skipPath");
  EXPECT_STREQ(ActionCodeName(5), "completePath");
  EXPECT_STREQ(ActionCodeName(200), "unknown");
}

TEST(ForensicsTest, DetectFlagsNonTermination) {
  std::vector<FlightRecord> records;
  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    FlightRecord r;
    r.kind = RecordKind::kTaskStart;
    r.time = attempt * 100;
    r.seq = attempt;
    r.task = 3;
    r.path = 1;
    r.attempt = attempt;
    records.push_back(r);
  }
  const std::vector<Finding> findings = Detect(records, DetectOptions{});
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().signature, "non-termination");
}

TEST(ForensicsTest, DetectFlagsRestartWithoutProgress) {
  std::vector<FlightRecord> records;
  for (std::uint32_t epoch = 0; epoch < 4; ++epoch) {
    FlightRecord r;
    r.kind = RecordKind::kBoot;
    r.time = epoch * 1000;
    r.epoch = epoch;
    records.push_back(r);
  }
  bool found = false;
  for (const Finding& finding : Detect(records, DetectOptions{})) {
    found = found || finding.signature == "no-progress";
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace artemis::flight
