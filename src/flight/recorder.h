// On-device flight recorder: a fixed-budget ring of sealed records in FRAM
// that survives power failures at any cycle offset.
//
// Crash-consistency protocol (two-phase commit, docs/forensics.md):
//   1. reserve  — evict sealed records from the head until the new record
//                 plus its trailing terminator fit;
//   2. payload  — write the payload bytes *after* the ring's terminator
//                 byte, then write the next terminator (0);
//   3. seal     — publish the record with a single-byte length write over
//                 the old terminator.
// The record's n payload writes, its terminator write and its seal write
// are charged through the FlightPort first, as one run of n + 2 byte
// writes in that order, and the record is written only when all n + 2 were
// charged. A power failure inside the run is at the same write offset as
// if each byte were charged and written in turn; it writes nothing, which
// is what the device would show to the decoder anyway: the seal is the last
// write and is one FRAM byte (the only atomicity assumption), so payload
// bytes past the terminator are never read. A crash at any point therefore
// leaves the log as a run of sealed records followed by a 0 terminator —
// truncated, never corrupt.
//
// Re-entrancy: a failed charge inside an append triggers the Mcu reboot
// path, which may append a boot record *during* the outer append. This is
// safe by construction: the nested append sees a consistent ring (the outer
// append has only performed durable, self-consistent steps), and when the
// outer append resumes it aborts on its failed charge without writing
// anything.
//
// tail_/used_/last_time_ are kept in ordinary members for simulation speed;
// on hardware they are derivable by scanning sealed records from head_, so
// only head_, head_base_time_ and epoch_ need dedicated FRAM control words.
#ifndef SRC_FLIGHT_RECORDER_H_
#define SRC_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/flight/record.h"

namespace artemis::flight {

// What the recorder keeps. Boot records and violated verdicts are the
// minimum useful black box; kFull adds task boundaries, commits and charge
// snapshots.
enum class FlightLevel {
  kOff = 0,
  kVerdictsOnly = 1,
  kFull = 2,
};

const char* FlightLevelName(FlightLevel level);
// Parses "off" / "verdicts" / "full"; false on anything else.
bool ParseFlightLevel(const std::string& text, FlightLevel* out);

// The recorder's window onto the simulated device. Charges return false when
// the power failed (or the MCU starved) mid-charge — the cycles were NOT
// fully spent and nothing may be written. The cost-model constants live with
// the implementor (Mcu maps these to CostModel's flight_* fields), keeping
// src/flight free of any sim dependency.
class FlightPort {
 public:
  virtual ~FlightPort() = default;
  // Encoding a record into its varint payload (CPU work).
  virtual bool ChargeRecordBuild() = 0;
  // A run of `count` FRAM byte writes (NVM write latency per byte under the
  // cost model), charged in order. Returns how many were charged before the
  // power failed: `count` when all were.
  virtual std::size_t ChargeWriteBytes(std::size_t count) = 0;
  // A control-word update: head advance per evicted record.
  virtual bool ChargeControlWrite() = 0;
  virtual SimTime DeviceNow() = 0;
};

struct FlightStats {
  std::uint64_t appends_attempted = 0;  // gated appends that reached the ring
  std::uint64_t records_sealed = 0;
  std::uint64_t appends_aborted = 0;    // power failure mid-append
  std::uint64_t records_evicted = 0;    // overwritten to make room
  std::uint64_t records_dropped = 0;    // payload could never fit the ring
  std::uint64_t bytes_sealed = 0;       // seal byte + payload, cumulative
};

// Host-side snapshot of the persistent state, the decoder's input.
struct RingImage {
  std::vector<std::uint8_t> bytes;
  std::uint32_t head = 0;
  SimTime head_base_time = 0;  // delta base for the record at head
};

class FlightRecorder {
 public:
  // `capacity` is the ring's byte budget. The owner (Mcu) accounts the NVM
  // allocation; the recorder only needs the bytes. Rings smaller than
  // kMinCapacityBytes are clamped up so a boot record always fits.
  explicit FlightRecorder(std::size_t capacity, FlightLevel level);

  static constexpr std::size_t kMinCapacityBytes = 16;

  void set_port(FlightPort* port) { port_ = port; }
  FlightLevel level() const { return level_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint32_t current_epoch() const { return epoch_; }
  // True once the current epoch's boot record sealed; AppendBoot is then a
  // no-op, so a reboot that interrupts another reboot's bookkeeping cannot
  // duplicate boot records.
  bool boot_recorded() const { return boot_epoch_sealed_ == epoch_; }
  const FlightStats& stats() const { return stats_; }

  // Called from the Mcu reboot path before any boot-record append: the new
  // power life gets a fresh epoch. The epoch counter bump is folded into the
  // reboot restore cost, so epochs count *every* reboot even when the boot
  // record itself cannot be written.
  void NoteReboot() { ++epoch_; }

  // Append entry points. All return false ONLY when a power failure (or
  // starvation) interrupted the append; records filtered out by the level,
  // dropped for size, or appended successfully all return true. A false
  // return means the caller's power already failed mid-charge, so it must
  // propagate the failure (the kernel returns ExecStatus::kPowerFailure).
  bool AppendBoot();
  bool AppendTaskStart(std::uint64_t seq, std::uint32_t task, std::uint32_t path,
                       std::uint32_t attempt);
  bool AppendTaskEnd(std::uint64_t seq, std::uint32_t task, std::uint32_t path);
  bool AppendCommit(std::uint64_t seq, std::uint32_t task, std::uint64_t bytes);
  bool AppendVerdict(std::uint64_t seq, std::uint32_t task, std::uint8_t action,
                     std::uint32_t target_path);
  // `fraction` in [0, 1]; stored as parts-per-thousand.
  bool AppendChargeSnapshot(double fraction);
  // Monitor hot-swap committed (docs/hotswap.md). Like verdicts, swap
  // epochs are recorded at every level except kOff: forensics cannot
  // stitch a cross-version timeline without them. The swap controller uses
  // this record's single-byte seal as the swap's atomic commit point.
  bool AppendSwapEpoch(std::uint64_t old_hash, std::uint64_t new_hash,
                       std::uint32_t image_epoch);

  // Host-side view for the decoder / forensics tooling.
  RingImage Image() const;

 private:
  bool Append(const FlightRecord& record);
  // Evicts the sealed record at head_, keeping head_base_time_ in sync by
  // reading the record's time in place (on hardware this is the FRAM
  // read-back + control-word write the eviction cycle charge models).
  bool EvictOldest();

  std::vector<std::uint8_t> ring_;  // FRAM bytes, zero-initialised at format
  std::uint32_t head_ = 0;          // FRAM control word: oldest sealed record
  std::uint32_t tail_ = 0;          // position of the live terminator byte
  std::size_t used_ = 0;            // sealed bytes in [head_, tail_)
  SimTime last_time_ = 0;           // delta base at tail_
  SimTime head_base_time_ = 0;      // delta base at head_
  std::uint32_t epoch_ = 0;         // FRAM control word: reboot count
  std::int64_t boot_epoch_sealed_ = -1;  // epoch whose boot record sealed
  FlightLevel level_;
  FlightPort* port_ = nullptr;
  FlightStats stats_;
};

}  // namespace artemis::flight

#endif  // SRC_FLIGHT_RECORDER_H_
