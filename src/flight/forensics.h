// Host-side forensics over a recovered flight log: the library behind
// `artemisc forensics` (dump / timeline / audit / detect). Everything here
// is deterministic — fixed key order, fixed float precision, no host
// timestamps — so the dump output can be golden-tested byte-for-byte
// (tests/golden/flight/health_6min.jsonl).
#ifndef SRC_FLIGHT_FORENSICS_H_
#define SRC_FLIGHT_FORENSICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/flight/record.h"
#include "src/flight/recorder.h"
#include "src/obs/event.h"
#include "src/obs/jsonl_sink.h"

namespace artemis::flight {

// Current dump schema identifier. Bump on any breaking change.
inline constexpr const char* kFlightSchema = "artemis-flight/1";

// Stable display name for a verdict record's action code. The codes are
// part of the wire format, so the name table lives here rather than
// depending on the kernel's ActionType enum; the strings match
// ActionTypeName so `audit` can compare against obs-bus events directly.
const char* ActionCodeName(std::uint8_t code);

// Run metadata for the dump header plus recorder-side counters.
struct FlightMeta {
  // The run fields the dump header shares with the artemis-trace/1 header
  // (app, power, schedule, backend, task names).
  obs::JsonlOptions run;
  std::string level;
  std::size_t capacity = 0;
  std::uint32_t reboots = 0;  // recorder epoch counter (power failures seen)
  FlightStats stats;
};

// Captures meta from a recorder after a run (run fields added by caller).
FlightMeta MetaFromRecorder(const FlightRecorder& recorder);

// JSONL dump: versioned header line, then one line per decoded record,
// oldest first.
std::string RenderDumpJsonl(const std::vector<FlightRecord>& records,
                            const FlightMeta& meta);

// Human-readable cross-reboot reconstruction: records grouped into boot
// epochs, with epoch gaps (reboots whose boot record was lost) and the
// lost-tail counters (aborted / evicted / dropped appends) reported.
std::string RenderTimeline(const std::vector<FlightRecord>& records,
                           const FlightMeta& meta);

// ---- audit ---------------------------------------------------------------
// Cross-validates the recovered flight log against the omniscient obs-bus
// capture of the same run: every flight record must have a matching bus
// event (matching on identity fields — seq/task/path/attempt/epoch — not on
// timestamps, since appends are charged cycles after the bus publish).
// Each bus event is consumed by at most one flight record.
struct AuditReport {
  std::size_t checked = 0;
  std::size_t matched = 0;
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
};

AuditReport Audit(const std::vector<FlightRecord>& records,
                  const std::vector<obs::Event>& bus_events);

std::string RenderAudit(const AuditReport& report, const FlightMeta& meta);

// ---- detect --------------------------------------------------------------
struct DetectOptions {
  // Non-termination: a task observed at this attempt count (or higher).
  std::uint32_t min_attempts = 3;
  // Restart-without-progress: this many consecutive epochs without a single
  // commit or task completion.
  std::uint32_t barren_epochs = 3;
  // MITD gap: silence in the record stream longer than this.
  SimDuration max_gap = 5 * kMinute;
};

struct Finding {
  std::string signature;  // "non-termination" / "no-progress" / "mitd-gap"
  SimTime time = 0;       // where in the log the signature fired
  std::string message;
};

std::vector<Finding> Detect(const std::vector<FlightRecord>& records,
                            const DetectOptions& options);

std::string RenderDetect(const std::vector<Finding>& findings,
                         const FlightMeta& meta);

}  // namespace artemis::flight

#endif  // SRC_FLIGHT_FORENSICS_H_
