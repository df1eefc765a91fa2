// artemis_perfbench: one run of one benchmark workload.
//
//   artemis_perfbench --workload <fleet-outage|fleet-fresh|sweep-grid>
//       --seed <n> --seconds <s> --trace <0|1> --reference <digests.txt>
//       [--size full|smoke] [--spans <file>]
//   artemis_perfbench --emit-digests --size <full|smoke>
//   artemis_perfbench --self-test --reference <digests.txt>
//
// --trace 0 prints the end-to-end metrics of the timed run, --trace 1 the
// per-layer metrics of the traced run. The last line of standard output is
// the result object {"correct", "attempted", "failed", "metrics"}; exit
// code 0 means the run completed (correct or not), 2 a usage error.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "perfbench/harness/host.h"
#include "perfbench/harness/timed.h"
#include "perfbench/harness/traced.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "artemis_perfbench: %s\n"
               "usage: artemis_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --reference <file> [--size full|smoke] [--spans <file>]\n"
               "       artemis_perfbench --emit-digests --size <full|smoke>\n"
               "       artemis_perfbench --self-test --reference <file>\n",
               error.c_str());
  return 2;
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

void PrintMetrics(const Result& result) {
  for (const Metric& m : result.metrics) {
    std::printf("metric %-34s %14s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }
}

// Smoke size of every workload: the output check passes and rejects a
// one-byte flip, the parity check passes and rejects a perturbed count,
// and every metric is printed with its unit.
bool RunSelfTest(const DigestTable& digests) {
  bool ok = true;
  const auto expect = [&ok](bool holds, const std::string& what) {
    std::printf("%s %s\n", holds ? "PASS" : "FAIL", what.c_str());
    ok = ok && holds;
  };
  for (const std::string& name : WorkloadNames()) {
    const WorkloadInput input = MakeInput(name, 0, Size::kSmoke).value();
    artemis::StatusOr<EngineOutput> out = RunEngine(input);
    expect(out.ok() && out.value().item_errors == 0, name + ": engine runs without errors");
    if (!out.ok()) {
      continue;
    }
    const std::string& rendering = out.value().rendering;
    expect(CheckRendering(input, digests, rendering).empty(), name + ": output check passes");
    std::string flipped = rendering;
    flipped[flipped.size() / 2] ^= 0x01;
    expect(!CheckRendering(input, digests, flipped).empty(),
           name + ": output check rejects a rendering with one byte flipped");

    const Result timed = RunTimed(input, 1.0, digests);
    PrintMetrics(timed);
    expect(timed.correct && timed.failed == 0, name + ": timed run is correct");

    const TracedRun traced = RunTraced(input, "");
    PrintMetrics(traced.result);
    expect(traced.result.correct, name + ": traced counts equal the engine's");
    ParityCounts perturbed = traced.traced;
    ++perturbed.commits;
    expect(!CheckParity(traced.engine, perturbed).empty(),
           name + ": parity check rejects a perturbed count");
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok;
}

// Prints the reference digest of every variant of every workload at
// `size`, in the format LoadDigests reads.
int EmitDigests(Size size) {
  for (const std::string& name : WorkloadNames()) {
    for (std::uint64_t variant = 0; variant < kVariants; ++variant) {
      artemis::StatusOr<WorkloadInput> input = MakeInput(name, variant, size);
      artemis::StatusOr<EngineOutput> out =
          input.ok() ? RunEngine(input.value())
                     : artemis::StatusOr<EngineOutput>(input.status());
      if (!out.ok() || out.value().item_errors != 0) {
        std::fprintf(stderr, "%s variant %llu failed\n", name.c_str(),
                     static_cast<unsigned long long>(variant));
        return 1;
      }
      std::printf("%s %s\n", DigestKey(input.value()).c_str(),
                  DigestHex(Digest(out.value().rendering)).c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  std::set<std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test" || key == "--emit-digests") {
      flags.insert(key);
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage("bad argument '" + key + "'");
    }
  }
  artemis::StatusOr<DigestTable> digests = LoadDigests(args["--reference"]);
  if (flags.count("--self-test") != 0) {
    if (!digests.ok()) {
      return Usage(digests.status().ToString());
    }
    return RunSelfTest(digests.value()) ? 0 : 1;
  }
  artemis::StatusOr<Size> size =
      ParseSize(args.count("--size") != 0 ? args["--size"] : "full");
  if (!size.ok()) {
    return Usage(size.status().ToString());
  }
  if (flags.count("--emit-digests") != 0) {
    return EmitDigests(size.value());
  }

  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  if (!ParseU64(args["--seed"], &seed) || !ParseU64(args["--seconds"], &seconds) ||
      seconds == 0 || !ParseU64(args["--trace"], &trace) || trace > 1) {
    return Usage("--seed, --seconds (>= 1) and --trace (0|1) are required");
  }
  if (!digests.ok()) {
    return Usage(digests.status().ToString());
  }
  artemis::StatusOr<WorkloadInput> input = MakeInput(args["--workload"], seed, size.value());
  if (!input.ok()) {
    return Usage(input.status().ToString());
  }

  const HostRecord host = MeasureHost();
  std::printf("host %s\n", host.Json().c_str());
  if (!host.release) {
    std::printf("WARNING: build type '%s' is not Release; numbers are not comparable\n",
                host.build_type.c_str());
  }
  std::printf("workload %s size=%s seed=%llu variant=%llu\n", input.value().name.c_str(),
              SizeName(size.value()), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(input.value().variant));
  Result result;
  if (trace == 0) {
    result = RunTimed(input.value(), static_cast<double>(seconds), digests.value());
  } else {
    // The traced run may use fewer devices than the timed run.
    const Size traced = size.value() == Size::kFull ? Size::kTraced : size.value();
    result =
        RunTraced(MakeInput(args["--workload"], seed, traced).value(), args["--spans"]).result;
  }
  PrintMetrics(result);
  std::printf("%s\n", result.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
