// Unit tests for src/base: duration parsing/formatting, status types,
// deterministic RNG, JSON string escaping, and the logging hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/base/json.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/units.h"

namespace artemis {
namespace {

// ---------------------------------------------------------------- units --

struct DurationCase {
  const char* text;
  SimDuration expected;
};

class ParseDurationTest : public ::testing::TestWithParam<DurationCase> {};

TEST_P(ParseDurationTest, ParsesLiteral) {
  const DurationCase& c = GetParam();
  const std::optional<SimDuration> parsed = ParseDuration(c.text);
  ASSERT_TRUE(parsed.has_value()) << c.text;
  EXPECT_EQ(*parsed, c.expected) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Literals, ParseDurationTest,
    ::testing::Values(DurationCase{"5min", 5 * kMinute}, DurationCase{"100ms", 100 * kMillisecond},
                      DurationCase{"2s", 2 * kSecond}, DurationCase{"3sec", 3 * kSecond},
                      DurationCase{"1h", kHour}, DurationCase{"250us", 250},
                      DurationCase{"1.5s", 1500 * kMillisecond},
                      DurationCase{"0.5min", 30 * kSecond}, DurationCase{"42", 42 * kMillisecond},
                      DurationCase{"0ms", 0}, DurationCase{"7m", 7 * kMinute}));

class ParseDurationRejectTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParseDurationRejectTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDuration(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Malformed, ParseDurationRejectTest,
                         ::testing::Values("", "ms", "5lightyears", "-3s", "1.2.3s", "s5",
                                           "5 min", "min"));

TEST(DurationLiteralTest, PicksLargestExactUnit) {
  EXPECT_EQ(DurationLiteral(5 * kMinute), "5min");
  EXPECT_EQ(DurationLiteral(90 * kSecond), "90s");
  EXPECT_EQ(DurationLiteral(100 * kMillisecond), "100ms");
  EXPECT_EQ(DurationLiteral(2 * kHour), "2h");
  EXPECT_EQ(DurationLiteral(1), "1us");
}

TEST(DurationLiteralTest, RoundTripsThroughParse) {
  for (const SimDuration d : {SimDuration{1}, 250 * kMillisecond, 5 * kMinute, 3 * kHour}) {
    EXPECT_EQ(ParseDuration(DurationLiteral(d)), d);
  }
}

TEST(FormatDurationTest, TwoLargestComponents) {
  EXPECT_EQ(FormatDuration(0), "0us");
  EXPECT_EQ(FormatDuration(2 * kMinute + 3 * kSecond + 4 * kMillisecond), "2min 3s");
  EXPECT_EQ(FormatDuration(90 * kMillisecond + 250), "90ms 250us");
  EXPECT_EQ(FormatDuration(kHour), "1h");
}

TEST(FormatTimestampTest, HmsMillis) {
  EXPECT_EQ(FormatTimestamp(0), "[00:00:00.000]");
  EXPECT_EQ(FormatTimestamp(kHour + 2 * kMinute + 3 * kSecond + 45 * kMillisecond),
            "[01:02:03.045]");
}

TEST(EnergyForTest, PowerTimesTime) {
  EXPECT_DOUBLE_EQ(EnergyFor(1.0, kSecond), 1000.0);  // 1 mW for 1 s = 1000 uJ
  EXPECT_DOUBLE_EQ(EnergyFor(24.0, 120 * kMillisecond), 2880.0);
  EXPECT_DOUBLE_EQ(EnergyFor(0.0, kHour), 0.0);
}

// --------------------------------------------------------------- status --

TEST(StatusTest, OkByDefault) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status status = Status::NotFound("no task named 'x'");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: no task named 'x'");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::Invalid("bad"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ rng --

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    differing += a.NextU64() != b.NextU64() ? 1 : 0;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformU64Bounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.UniformU64(10, 20);
    EXPECT_GE(x, 10u);
    EXPECT_LE(x, 20u);
  }
}

TEST(RngTest, ExponentialMeanApproximate) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.Exponential(kSecond));
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, static_cast<double>(kSecond), 0.05 * static_cast<double>(kSecond));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.Gaussian(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

// ----------------------------------------------------------------- json --

TEST(JsonEscapeTest, EscapesControlBytesQuoteAndBackslash) {
  const char* hex = "0123456789abcdef";
  for (int c = 0; c < 0x20; ++c) {
    std::string want;
    if (c == '\n') {
      want = "\\n";
    } else if (c == '\t') {
      want = "\\t";
    } else {
      want = std::string("\\u00") + hex[c >> 4] + hex[c & 0xf];
    }
    EXPECT_EQ(JsonEscape(std::string(1, static_cast<char>(c))), want) << "byte " << c;
  }
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  // Bytes from 0x20 up, UTF-8 included, pass through untouched.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 \x7f"), "caf\xc3\xa9 \x7f");
}

// ------------------------------------------------------------------ log --

std::string* g_captured = nullptr;

void CaptureSink(LogLevel, const std::string& message) {
  if (g_captured != nullptr) {
    *g_captured += message + "\n";
  }
}

TEST(LogTest, RespectsLevelThreshold) {
  std::string captured;
  g_captured = &captured;
  SetLogSink(&CaptureSink);
  SetLogLevel(LogLevel::kWarn);
  ARTEMIS_INFO() << "hidden";
  ARTEMIS_WARN() << "visible " << 42;
  SetLogSink(nullptr);
  g_captured = nullptr;
  EXPECT_EQ(captured, "visible 42\n");
}

TEST(LogTest, OffSilencesEverything) {
  std::string captured;
  g_captured = &captured;
  SetLogSink(&CaptureSink);
  SetLogLevel(LogLevel::kOff);
  ARTEMIS_WARN() << "nope";
  SetLogSink(nullptr);
  SetLogLevel(LogLevel::kWarn);
  g_captured = nullptr;
  EXPECT_TRUE(captured.empty());
}

}  // namespace
}  // namespace artemis
