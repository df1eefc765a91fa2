// Flight-recorder wire format: the varint-encoded record types the on-device
// black box (src/flight/recorder.h) seals into its FRAM ring and the host
// decoder (src/flight/decoder.h) reads back.
//
// One record = [seal byte][payload]. The seal byte is the payload length
// (1..kMaxPayloadBytes); 0 means "unsealed / end of log" and doubles as the
// ring terminator, which is what makes the two-phase commit work: the seal
// is a single-byte FRAM write, the only atomicity assumption the protocol
// makes (docs/forensics.md).
//
// Payload layout: one kind byte, then LEB128 varints. Non-boot records carry
// their timestamp as a zigzag delta against the previous sealed record
// (clock regressions after an outage under a drifting timekeeper stay
// representable); boot records carry the absolute device time and restart
// the delta chain. Layering: this header depends only on src/base.
#ifndef SRC_FLIGHT_RECORD_H_
#define SRC_FLIGHT_RECORD_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/base/time.h"

namespace artemis::flight {

// The seal byte is the payload length, so payloads are capped below the
// 0x01..0xFF range; every record type stays well under this.
inline constexpr std::size_t kMaxPayloadBytes = 250;

// Worst-case encoded payload across all record kinds. It sizes the buffer
// every append encodes into, and the static analyzer (ART014) uses it to
// reject rings too small to hold one record. The largest encoder outputs
// tie at 36 bytes: kTaskStart (1 kind byte + 10 zigzag time delta + 10 seq
// + 5 task + 5 path + 5 attempt), kCommit (1 + 10 + 10 seq + 5 task + 10
// bytes) and kSwapEpoch (1 + 10 + 10 old hash + 10 new hash + 5 image
// epoch). A record additionally occupies its seal byte plus the ring's zero
// terminator, so the minimum useful capacity is this + 2.
inline constexpr std::size_t kWorstCasePayloadBytes = 36;
static_assert(kWorstCasePayloadBytes <= kMaxPayloadBytes,
              "every payload length must fit the seal byte");

// The buffer a payload is encoded into.
using PayloadBuffer = std::array<std::uint8_t, kWorstCasePayloadBytes>;

// Record kinds. Part of the artemis-flight/1 wire format: append new kinds,
// never renumber.
enum class RecordKind : std::uint8_t {
  kBoot = 1,            // new power life: epoch + absolute device time
  kTaskStart = 2,       // monitored StartTask boundary (seq/task/path/attempt)
  kTaskEnd = 3,         // monitored EndTask boundary
  kCommit = 4,          // checkpoint commit: committed bytes
  kVerdict = 5,         // violated monitor verdict + corrective action
  kChargeSnapshot = 6,  // stored-energy fraction sample (per boot)
  kSwapEpoch = 7,       // monitor hot-swap committed: old/new spec hashes +
                        // the new image epoch (docs/hotswap.md)
};

// Stable dotted name, e.g. "task-start"; part of the JSONL dump schema.
const char* RecordKindName(RecordKind kind);
bool IsValidRecordKind(std::uint8_t value);

// Decoded record: the superset of every kind's fields (unused fields stay
// at their defaults, mirroring obs::Event).
struct FlightRecord {
  RecordKind kind = RecordKind::kBoot;
  SimTime time = 0;                // absolute device time (reconstructed)
  std::uint32_t epoch = 0;         // boot / charge-snapshot
  std::uint64_t seq = 0;           // kernel event sequence number
  std::uint32_t task = 0;          // task-start/end, commit, verdict
  std::uint32_t path = 0;          // task-start/end
  std::uint32_t attempt = 0;       // task-start
  std::uint64_t bytes = 0;         // commit
  std::uint8_t action = 0;         // verdict: ActionType code
  std::uint32_t target_path = 0;   // verdict: explicit path target (0 = none)
  std::uint32_t fraction_milli = 0;  // charge-snapshot: fraction * 1000
  std::uint64_t old_hash = 0;      // swap-epoch: retiring image's spec hash
  std::uint64_t new_hash = 0;      // swap-epoch: installed image's spec hash
  std::uint32_t image_epoch = 0;   // swap-epoch: new image's header epoch
};

// ---- LEB128 varints ------------------------------------------------------
// Longest encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;
// Writes `value` at `out`, which must have kMaxVarintBytes of room, and
// returns the number of bytes written.
std::size_t PutVarint(std::uint8_t* out, std::uint64_t value);
// Reads a varint at *pos, advancing it. False on truncation / overlong.
bool GetVarint(const std::uint8_t* data, std::size_t size, std::size_t* pos,
               std::uint64_t* out);
std::uint64_t ZigZagEncode(std::int64_t value);
std::int64_t ZigZagDecode(std::uint64_t value);

// Encodes `record`'s payload into `out` and returns its length. `last_time`
// is the delta base (the previous sealed record's timestamp); ignored for
// kBoot.
std::size_t EncodePayload(const FlightRecord& record, SimTime last_time, PayloadBuffer* out);

// Decodes one payload. `last_time` is the delta base; on success the
// record's absolute time is reconstructed. False on any malformed byte —
// the torture test asserts this never fires on a crash-truncated ring.
bool DecodePayload(const std::uint8_t* data, std::size_t size, SimTime last_time,
                   FlightRecord* record);

}  // namespace artemis::flight

#endif  // SRC_FLIGHT_RECORD_H_
