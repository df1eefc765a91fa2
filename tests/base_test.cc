// Unit tests for src/base: duration parsing/formatting, status types,
// deterministic RNG, the JSON writer, and the logging hooks.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/base/json.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/sweep/grid_json.h"

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

std::string WriteString(std::string_view text) {
  std::string out;
  JsonWriter(&out).String(text);
  return out;
}

TEST(JsonWriterTest, EscapesControlBytesQuoteAndBackslash) {
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
    EXPECT_EQ(WriteString(std::string(1, static_cast<char>(c))), '"' + want + '"')
        << "byte " << c;
  }
  EXPECT_EQ(WriteString("a\"b\\c"), R"("a\"b\\c")");
  // Bytes from 0x20 up, UTF-8 included, pass through untouched.
  EXPECT_EQ(WriteString("caf\xc3\xa9 \x7f"), "\"caf\xc3\xa9 \x7f\"");
  // Keys are escaped the same way.
  std::string out;
  JsonWriter(&out).BeginObject(JsonLayout::kCompact).Key("k\"\n").Null().End();
  EXPECT_EQ(out, R"({"k\"\n":null})");
}

TEST(JsonWriterTest, IntegersBooleansAndNull) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray(JsonLayout::kCompact);
  w.Int(std::numeric_limits<std::uint64_t>::max()).Int(0).Int(-1);
  w.Int(std::numeric_limits<std::int64_t>::min()).Bool(true).Bool(false).Null();
  w.End();
  EXPECT_EQ(out, "[18446744073709551615,0,-1,-9223372036854775808,true,false,null]");
}

// One document in every layout: an object holding a nested array, an
// object and both kinds of empty container.
std::string LayoutSample(JsonLayout layout, int indent) {
  std::string out;
  JsonWriter w(&out, indent);
  w.BeginObject(layout);
  w.Key("a").Int(1);
  w.Key("list").BeginArray(layout).String("x").BeginObject(layout).Key("b").Bool(true).End();
  w.End();
  w.Key("none").BeginArray(layout).End();
  w.Key("nothing").BeginObject(layout).End();
  w.End();
  return out;
}

TEST(JsonWriterTest, LayoutsNestMixAndKeepEmptyContainersBare) {
  EXPECT_EQ(LayoutSample(JsonLayout::kCompact, 2),
            R"({"a":1,"list":["x",{"b":true}],"none":[],"nothing":{}})");
  EXPECT_EQ(LayoutSample(JsonLayout::kInline, 2),
            R"({"a": 1, "list": ["x", {"b": true}], "none": [], "nothing": {}})");
  EXPECT_EQ(LayoutSample(JsonLayout::kBlock, 2),
            "{\n"
            "  \"a\": 1,\n"
            "  \"list\": [\n"
            "    \"x\",\n"
            "    {\n"
            "      \"b\": true\n"
            "    }\n"
            "  ],\n"
            "  \"none\": [],\n"
            "  \"nothing\": {}\n"
            "}");
  EXPECT_EQ(LayoutSample(JsonLayout::kBlock, 0),
            "{\n\"a\": 1,\n\"list\": [\n\"x\",\n{\n\"b\": true\n}\n],\n\"none\": [],\n"
            "\"nothing\": {}\n}");
  // Mixed: a block list of inline rows inside a compact wrapper, the
  // shapes of the sweep rows and the Perfetto trace.
  std::string out;
  JsonWriter w(&out, 0);
  w.BeginObject(JsonLayout::kCompact).Key("rows").BeginArray(JsonLayout::kBlock);
  w.BeginObject(JsonLayout::kInline).Key("i").Int(0).Key("v").Fixed(0.5, 1).End();
  w.BeginObject(JsonLayout::kInline).End();
  w.End().End();
  EXPECT_EQ(out, "{\"rows\":[\n{\"i\": 0, \"v\": 0.5},\n{}\n]}");
  // Top-level values need no container; a caller separates them itself.
  std::string lines;
  JsonWriter(&lines).String("a");
  lines += '\n';
  JsonWriter(&lines).BeginArray(JsonLayout::kBlock).End();
  EXPECT_EQ(lines, "\"a\"\n[]");
}

std::string Printf(double value, int digits) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

TEST(JsonWriterTest, FixedMatchesPrintfForEveryFiniteValue) {
  const double min_denormal = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 2.5, -2.5, 0.125, 0.0625, 0.0005, 0.00005, 2.675,
      // Ties half an ulp of the last printed digit away: round-half-even
      // on the exact binary value, never on a decimal approximation.
      1.0005, 1.00005, 0.3125, 0.15625, 9.9999999995, 123456789.0125,
      1e300, -1e300, DBL_MAX, -DBL_MAX, DBL_MIN, min_denormal, -min_denormal, 1e-310,
      std::nextafter(0.5, 1.0), std::nextafter(0.5, 0.0), 1e22, 1e23};
  for (const double value : values) {
    for (const int digits : {0, 3, 4, 6, 9}) {
      EXPECT_EQ(FormatFixed(value, digits), Printf(value, digits)) << value << " @" << digits;
      std::string out;
      JsonWriter(&out).Fixed(value, digits);
      EXPECT_EQ(out, Printf(value, digits));
    }
  }
  // And over random bit patterns.
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits = rng.NextU64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) {
      continue;
    }
    const int digits = static_cast<int>(rng.NextU64() % 10);
    ASSERT_EQ(FormatFixed(value, digits), Printf(value, digits)) << value << " @" << digits;
  }
}

// ------------------------------------------------------ json round trip --

using sweep::JsonValue;
using sweep::JsonValuePtr;

// A random document: objects (distinct keys, since the reader keeps
// members in a map), arrays, strings over every byte, unsigned and
// negative integers, 6-decimal fractions, booleans and null.
JsonValuePtr RandomValue(Rng& rng, int depth) {
  // The root is a container; below depth 4 only scalars.
  const int kind = depth == 0 ? static_cast<int>(5 + rng.NextU64() % 2)
                              : static_cast<int>(rng.NextU64() % (depth >= 4 ? 5 : 7));
  switch (kind) {
    case 0:
      return JsonValue::MakeNull();
    case 1:
      return JsonValue::MakeBool(rng.NextU64() % 2 == 0);
    case 2: {
      const double magnitude = static_cast<double>(rng.NextU64() % (1ull << 53));
      return JsonValue::MakeNumber(rng.NextU64() % 2 == 0 ? magnitude : -magnitude);
    }
    case 3:
      return JsonValue::MakeNumber(
          static_cast<double>(static_cast<std::int64_t>(rng.NextU64() % 2000001) - 1000000) /
          1000.0);
    case 4: {
      std::string text;
      for (std::uint64_t n = rng.NextU64() % 8; n > 0; --n) {
        text += static_cast<char>(rng.NextU64() % 256);
      }
      return JsonValue::MakeString(text);
    }
    case 5: {
      std::vector<JsonValuePtr> items;
      for (std::uint64_t n = rng.NextU64() % 5; n > 0; --n) {
        items.push_back(RandomValue(rng, depth + 1));
      }
      return JsonValue::MakeArray(std::move(items));
    }
    default: {
      std::map<std::string, JsonValuePtr> members;
      for (std::uint64_t n = rng.NextU64() % 5; n > 0; --n) {
        members["k" + std::to_string(rng.NextU64() % 100) + "\"\t"] = RandomValue(rng, depth + 1);
      }
      return JsonValue::MakeObject(std::move(members));
    }
  }
}

// Writes `value` with every container in `layout`, or in a random layout
// each when `layout` is empty.
void WriteValue(const JsonValue& value, std::optional<JsonLayout> layout, Rng& rng,
                JsonWriter* w) {
  const JsonLayout container =
      layout.value_or(static_cast<JsonLayout>(rng.NextU64() % 3));
  switch (value.type()) {
    case JsonValue::Type::kNull:
      w->Null();
      break;
    case JsonValue::Type::kBool:
      w->Bool(value.boolean());
      break;
    case JsonValue::Type::kNumber:
      if (value.number() != std::floor(value.number())) {
        w->Fixed(value.number(), 6);
      } else if (value.number() < 0) {
        w->Int(static_cast<std::int64_t>(value.number()));
      } else {
        w->Int(static_cast<std::uint64_t>(value.number()));
      }
      break;
    case JsonValue::Type::kString:
      w->String(value.string());
      break;
    case JsonValue::Type::kArray:
      w->BeginArray(container);
      for (const JsonValuePtr& item : value.array()) {
        WriteValue(*item, layout, rng, w);
      }
      w->End();
      break;
    case JsonValue::Type::kObject:
      w->BeginObject(container);
      for (const auto& [key, member] : value.object()) {
        w->Key(key);
        WriteValue(*member, layout, rng, w);
      }
      w->End();
      break;
  }
}

bool SameTree(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) {
    return false;
  }
  switch (a.type()) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.boolean() == b.boolean();
    case JsonValue::Type::kNumber:
      return a.number() == b.number();
    case JsonValue::Type::kString:
      return a.string() == b.string();
    case JsonValue::Type::kArray:
      if (a.array().size() != b.array().size()) {
        return false;
      }
      for (std::size_t i = 0; i < a.array().size(); ++i) {
        if (!SameTree(*a.array()[i], *b.array()[i])) {
          return false;
        }
      }
      return true;
    case JsonValue::Type::kObject:
      if (a.object().size() != b.object().size()) {
        return false;
      }
      for (const auto& [key, member] : a.object()) {
        const JsonValuePtr other = b.Find(key);
        if (other == nullptr || !SameTree(*member, *other)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

TEST(JsonWriterTest, RandomDocumentsRoundTripThroughTheGridReader) {
  Rng rng(7);
  for (int doc = 0; doc < 300; ++doc) {
    const JsonValuePtr tree = RandomValue(rng, 0);
    for (const std::optional<JsonLayout> layout :
         {std::optional<JsonLayout>(JsonLayout::kCompact),
          std::optional<JsonLayout>(JsonLayout::kInline),
          std::optional<JsonLayout>(JsonLayout::kBlock), std::optional<JsonLayout>()}) {
      std::string text;
      JsonWriter w(&text, static_cast<int>(rng.NextU64() % 5));
      WriteValue(*tree, layout, rng, &w);
      const StatusOr<JsonValuePtr> parsed = sweep::ParseJson(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
      EXPECT_TRUE(SameTree(*tree, *parsed.value())) << text;
    }
  }
}

}  // namespace
}  // namespace artemis
