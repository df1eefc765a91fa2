// The untraced run: end-to-end metrics of one workload.
#ifndef PERFBENCH_HARNESS_TIMED_H_
#define PERFBENCH_HARNESS_TIMED_H_

#include <string>

#include "perfbench/harness/host.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {

// Compares one rendering with the workload's reference digest. Returns an
// empty string when it matches, else what went wrong.
std::string CheckRendering(const WorkloadInput& input, const DigestTable& digests,
                           const std::string& rendering);

// Repeats [a batch of set-ups, one engine call] for `seconds` (at least
// one warm-up and five timed calls) and reports medians: of all set-ups
// (setup_s) and of the timed calls (devices_per_s, cpu_s). Every call's
// rendering is checked against `digests`.
Result RunTimed(const WorkloadInput& input, double seconds, const DigestTable& digests);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TIMED_H_
