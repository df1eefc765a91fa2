#include "src/flight/recorder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace artemis::flight {

namespace {

// Reads the LEB128 varint at ring offset *pos, wrapping at the ring's end,
// and advances *pos past it.
std::uint64_t RingVarint(const std::vector<std::uint8_t>& ring, std::size_t* pos) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = ring[*pos];
    *pos = *pos + 1 == ring.size() ? 0 : *pos + 1;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      break;
    }
  }
  return value;
}

}  // namespace

const char* FlightLevelName(FlightLevel level) {
  switch (level) {
    case FlightLevel::kOff:
      return "off";
    case FlightLevel::kVerdictsOnly:
      return "verdicts";
    case FlightLevel::kFull:
      return "full";
  }
  return "unknown";
}

bool ParseFlightLevel(const std::string& text, FlightLevel* out) {
  if (text == "off") {
    *out = FlightLevel::kOff;
  } else if (text == "verdicts" || text == "verdicts-only") {
    *out = FlightLevel::kVerdictsOnly;
  } else if (text == "full") {
    *out = FlightLevel::kFull;
  } else {
    return false;
  }
  return true;
}

FlightRecorder::FlightRecorder(std::size_t capacity, FlightLevel level)
    : ring_(std::max(capacity, kMinCapacityBytes), 0), level_(level) {}

bool FlightRecorder::AppendBoot() {
  if (level_ == FlightLevel::kOff || boot_recorded()) {
    return true;
  }
  FlightRecord r;
  r.kind = RecordKind::kBoot;
  r.epoch = epoch_;
  r.time = port_->DeviceNow();
  const std::uint64_t sealed_before = stats_.records_sealed;
  const bool ok = Append(r);
  if (ok && stats_.records_sealed > sealed_before) {
    boot_epoch_sealed_ = epoch_;
  }
  return ok;
}

bool FlightRecorder::AppendTaskStart(std::uint64_t seq, std::uint32_t task,
                                     std::uint32_t path, std::uint32_t attempt) {
  if (level_ != FlightLevel::kFull) {
    return true;
  }
  FlightRecord r;
  r.kind = RecordKind::kTaskStart;
  r.time = port_->DeviceNow();
  r.seq = seq;
  r.task = task;
  r.path = path;
  r.attempt = attempt;
  return Append(r);
}

bool FlightRecorder::AppendTaskEnd(std::uint64_t seq, std::uint32_t task,
                                   std::uint32_t path) {
  if (level_ != FlightLevel::kFull) {
    return true;
  }
  FlightRecord r;
  r.kind = RecordKind::kTaskEnd;
  r.time = port_->DeviceNow();
  r.seq = seq;
  r.task = task;
  r.path = path;
  return Append(r);
}

bool FlightRecorder::AppendCommit(std::uint64_t seq, std::uint32_t task,
                                  std::uint64_t bytes) {
  if (level_ != FlightLevel::kFull) {
    return true;
  }
  FlightRecord r;
  r.kind = RecordKind::kCommit;
  r.time = port_->DeviceNow();
  r.seq = seq;
  r.task = task;
  r.bytes = bytes;
  return Append(r);
}

bool FlightRecorder::AppendVerdict(std::uint64_t seq, std::uint32_t task,
                                   std::uint8_t action, std::uint32_t target_path) {
  if (level_ == FlightLevel::kOff) {
    return true;
  }
  FlightRecord r;
  r.kind = RecordKind::kVerdict;
  r.time = port_->DeviceNow();
  r.seq = seq;
  r.task = task;
  r.action = action;
  r.target_path = target_path;
  return Append(r);
}

bool FlightRecorder::AppendSwapEpoch(std::uint64_t old_hash, std::uint64_t new_hash,
                                     std::uint32_t image_epoch) {
  if (level_ == FlightLevel::kOff) {
    return true;
  }
  FlightRecord r;
  r.kind = RecordKind::kSwapEpoch;
  r.time = port_->DeviceNow();
  r.old_hash = old_hash;
  r.new_hash = new_hash;
  r.image_epoch = image_epoch;
  return Append(r);
}

bool FlightRecorder::AppendChargeSnapshot(double fraction) {
  if (level_ != FlightLevel::kFull) {
    return true;
  }
  FlightRecord r;
  r.kind = RecordKind::kChargeSnapshot;
  r.time = port_->DeviceNow();
  r.epoch = epoch_;
  const double clamped = std::min(1.0, std::max(0.0, fraction));
  r.fraction_milli = static_cast<std::uint32_t>(std::lround(clamped * 1000.0));
  return Append(r);
}

bool FlightRecorder::EvictOldest() {
  // Advance the decoder's time base past the record being overwritten. Only
  // its kind byte and time varint are read, in place: a boot record's
  // absolute time follows its epoch, every other kind leads with its zigzag
  // delta. The head record is sealed by invariant, so both are present.
  const std::size_t cap = ring_.size();
  const std::uint8_t len = ring_[head_];
  std::size_t pos = head_ + 1 == cap ? 0 : head_ + 1;
  const auto kind = static_cast<RecordKind>(ring_[pos]);
  pos = pos + 1 == cap ? 0 : pos + 1;
  if (kind == RecordKind::kBoot) {
    (void)RingVarint(ring_, &pos);  // epoch
    head_base_time_ = static_cast<SimTime>(RingVarint(ring_, &pos));
  } else {
    head_base_time_ += static_cast<SimTime>(ZigZagDecode(RingVarint(ring_, &pos)));
  }
  head_ = static_cast<std::uint32_t>((head_ + 1 + len) % cap);
  used_ -= 1 + static_cast<std::size_t>(len);
  ++stats_.records_evicted;
  return port_->ChargeControlWrite();
}

bool FlightRecorder::Append(const FlightRecord& record) {
  // Phase 0: build. The encode itself costs CPU cycles; if power dies here,
  // nothing was written and the ring is untouched.
  if (!port_->ChargeRecordBuild()) {
    ++stats_.appends_aborted;
    return false;
  }
  PayloadBuffer payload{};
  const std::size_t n = EncodePayload(record, last_time_, &payload);
  const std::size_t cap = ring_.size();
  ++stats_.appends_attempted;
  // A record needs its seal byte, payload, and the next terminator. The
  // seal byte holds any payload length (kWorstCasePayloadBytes <=
  // kMaxPayloadBytes, record.h), so only a small ring can refuse it.
  if (n + 2 > cap) {
    ++stats_.records_dropped;
    return true;
  }
  // Phase 1: reserve. Evict sealed records until the new one fits. Each
  // eviction leaves head_/used_ consistent, so a mid-reservation crash just
  // means some old records were reclaimed for nothing.
  while (cap - used_ < n + 2) {
    if (!EvictOldest()) {
      ++stats_.appends_aborted;
      return false;
    }
  }
  // Charge the n payload writes, the terminator write and the seal write
  // as one run. A run the power interrupted writes nothing (recorder.h).
  if (port_->ChargeWriteBytes(n + 2) != n + 2) {
    ++stats_.appends_aborted;
    return false;
  }
  // Phase 2: payload. tail_ holds the live 0 terminator; the payload goes
  // after it, wrapping at most once, followed by the record's own
  // terminator.
  const std::size_t start = tail_ + 1 == cap ? 0 : tail_ + 1;
  const std::size_t first = std::min(n, cap - start);
  std::memcpy(ring_.data() + start, payload.data(), first);
  std::memcpy(ring_.data(), payload.data() + first, n - first);
  const std::size_t end = start + n < cap ? start + n : start + n - cap;
  ring_[end] = 0;
  // Phase 3: seal. A single byte write over the old terminator publishes the
  // record; everything before this point is invisible to the decoder.
  ring_[tail_] = static_cast<std::uint8_t>(n);
  tail_ = static_cast<std::uint32_t>(end);
  used_ += 1 + n;
  last_time_ = record.time;
  ++stats_.records_sealed;
  stats_.bytes_sealed += 1 + n;
  return true;
}

RingImage FlightRecorder::Image() const {
  RingImage image;
  image.bytes = ring_;
  image.head = head_;
  image.head_base_time = head_base_time_;
  return image;
}

}  // namespace artemis::flight
