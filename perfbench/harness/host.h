// Host-side measurement helpers shared by the timed and traced runs: the
// host record stored next to every result, process CPU and peak-RSS
// probes, order statistics, and the result line the benchmark prints.
#ifndef PERFBENCH_HARNESS_HOST_H_
#define PERFBENCH_HARNESS_HOST_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// What the numbers were measured on. Effective parallelism is measured,
// not assumed: k threads each spin the same fixed amount of work, and
// effective(k) = k * wall(1) / wall(k).
struct HostRecord {
  unsigned nproc = 0;
  double spin_1_s = 0.0;  // one thread's wall for the fixed spin: host speed
  double effective_2 = 0.0;
  double effective_4 = 0.0;
  std::string compiler;
  std::string build_type;
  bool release = false;

  std::string Json() const;
};

HostRecord MeasureHost();

// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();
// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// FNV-1a over a rendering; a one-byte change always changes the digest.
std::uint64_t Digest(const std::string& bytes);
std::string DigestHex(std::uint64_t digest);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One benchmark run's verdict and numbers; Json() is the last line the
// benchmark prints.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  std::string Json() const;
};

// Shortest round-trip decimal form of a double.
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HOST_H_
