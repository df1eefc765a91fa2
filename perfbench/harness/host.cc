#include "perfbench/harness/host.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_spin_sink{0};

// A fixed chunk of dependent integer work (xorshift), sized so one thread
// takes tens of milliseconds.
void Spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

double SpinWall(int threads, std::uint64_t iterations) {
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(Spin, iterations);
    }
    for (std::thread& th : pool) {
      th.join();
    }
    walls.push_back(SecondsSince(start));
  }
  return Median(walls);
}

}  // namespace

std::string HostRecord::Json() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"spin_1_s\": %.4f, \"effective_parallelism\": "
                "{\"2\": %.2f, \"4\": %.2f}, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"release\": %s}",
                nproc, spin_1_s, effective_2, effective_4, compiler.c_str(),
                build_type.c_str(), release ? "true" : "false");
  return buf;
}

HostRecord MeasureHost() {
  HostRecord host;
  host.nproc = std::thread::hardware_concurrency();
  host.compiler = PERFBENCH_COMPILER;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.release = host.build_type == "Release";
  constexpr std::uint64_t kIterations = 40'000'000;
  host.spin_1_s = SpinWall(1, kIterations);
  host.effective_2 = 2.0 * host.spin_1_s / SpinWall(2, kIterations);
  host.effective_4 = 4.0 * host.spin_1_s / SpinWall(4, kIterations);
  return host;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::uint64_t Digest(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string DigestHex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, r.ptr);
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
