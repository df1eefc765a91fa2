#include "src/flight/record.h"

namespace artemis::flight {

const char* RecordKindName(RecordKind kind) {
  switch (kind) {
    case RecordKind::kBoot:
      return "boot";
    case RecordKind::kTaskStart:
      return "task-start";
    case RecordKind::kTaskEnd:
      return "task-end";
    case RecordKind::kCommit:
      return "commit";
    case RecordKind::kVerdict:
      return "verdict";
    case RecordKind::kChargeSnapshot:
      return "charge-snapshot";
    case RecordKind::kSwapEpoch:
      return "swap-epoch";
  }
  return "unknown";
}

bool IsValidRecordKind(std::uint8_t value) {
  return value >= static_cast<std::uint8_t>(RecordKind::kBoot) &&
         value <= static_cast<std::uint8_t>(RecordKind::kSwapEpoch);
}

std::size_t PutVarint(std::uint8_t* out, std::uint64_t value) {
  std::size_t n = 0;
  while (value >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(value);
  return n;
}

bool GetVarint(const std::uint8_t* data, std::size_t size, std::size_t* pos,
               std::uint64_t* out) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= size) {
      return false;  // truncated
    }
    const std::uint8_t byte = data[(*pos)++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
  }
  return false;  // overlong: more than 10 continuation bytes
}

std::uint64_t ZigZagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t ZigZagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^ -static_cast<std::int64_t>(value & 1);
}

std::size_t EncodePayload(const FlightRecord& record, SimTime last_time, PayloadBuffer* out) {
  std::uint8_t* const data = out->data();
  std::size_t n = 0;
  data[n++] = static_cast<std::uint8_t>(record.kind);
  // Unsigned subtraction: the wrapped difference is the signed delta for
  // any pair of times, with no signed overflow.
  const std::uint64_t delta = ZigZagEncode(static_cast<std::int64_t>(record.time - last_time));
  switch (record.kind) {
    case RecordKind::kBoot:
      n += PutVarint(data + n, record.epoch);
      n += PutVarint(data + n, static_cast<std::uint64_t>(record.time));
      break;
    case RecordKind::kTaskStart:
      n += PutVarint(data + n, delta);
      n += PutVarint(data + n, record.seq);
      n += PutVarint(data + n, record.task);
      n += PutVarint(data + n, record.path);
      n += PutVarint(data + n, record.attempt);
      break;
    case RecordKind::kTaskEnd:
      n += PutVarint(data + n, delta);
      n += PutVarint(data + n, record.seq);
      n += PutVarint(data + n, record.task);
      n += PutVarint(data + n, record.path);
      break;
    case RecordKind::kCommit:
      n += PutVarint(data + n, delta);
      n += PutVarint(data + n, record.seq);
      n += PutVarint(data + n, record.task);
      n += PutVarint(data + n, record.bytes);
      break;
    case RecordKind::kVerdict:
      n += PutVarint(data + n, delta);
      n += PutVarint(data + n, record.seq);
      n += PutVarint(data + n, record.task);
      n += PutVarint(data + n, record.action);
      n += PutVarint(data + n, record.target_path);
      break;
    case RecordKind::kChargeSnapshot:
      n += PutVarint(data + n, delta);
      n += PutVarint(data + n, record.epoch);
      n += PutVarint(data + n, record.fraction_milli);
      break;
    case RecordKind::kSwapEpoch:
      n += PutVarint(data + n, delta);
      n += PutVarint(data + n, record.old_hash);
      n += PutVarint(data + n, record.new_hash);
      n += PutVarint(data + n, record.image_epoch);
      break;
  }
  return n;
}

namespace {

bool GetU32(const std::uint8_t* data, std::size_t size, std::size_t* pos,
            std::uint32_t* out) {
  std::uint64_t wide = 0;
  if (!GetVarint(data, size, pos, &wide) || wide > 0xffffffffULL) {
    return false;
  }
  *out = static_cast<std::uint32_t>(wide);
  return true;
}

}  // namespace

bool DecodePayload(const std::uint8_t* data, std::size_t size, SimTime last_time,
                   FlightRecord* record) {
  if (size == 0 || !IsValidRecordKind(data[0])) {
    return false;
  }
  *record = FlightRecord{};
  record->kind = static_cast<RecordKind>(data[0]);
  std::size_t pos = 1;
  std::uint64_t delta = 0;
  if (record->kind != RecordKind::kBoot) {
    if (!GetVarint(data, size, &pos, &delta)) {
      return false;
    }
    record->time = last_time + static_cast<SimTime>(ZigZagDecode(delta));
  }
  bool ok = false;
  switch (record->kind) {
    case RecordKind::kBoot: {
      std::uint64_t abs_time = 0;
      ok = GetU32(data, size, &pos, &record->epoch) &&
           GetVarint(data, size, &pos, &abs_time);
      record->time = static_cast<SimTime>(abs_time);
      break;
    }
    case RecordKind::kTaskStart:
      ok = GetVarint(data, size, &pos, &record->seq) &&
           GetU32(data, size, &pos, &record->task) &&
           GetU32(data, size, &pos, &record->path) &&
           GetU32(data, size, &pos, &record->attempt);
      break;
    case RecordKind::kTaskEnd:
      ok = GetVarint(data, size, &pos, &record->seq) &&
           GetU32(data, size, &pos, &record->task) &&
           GetU32(data, size, &pos, &record->path);
      break;
    case RecordKind::kCommit:
      ok = GetVarint(data, size, &pos, &record->seq) &&
           GetU32(data, size, &pos, &record->task) &&
           GetVarint(data, size, &pos, &record->bytes);
      break;
    case RecordKind::kVerdict: {
      std::uint32_t action = 0;
      ok = GetVarint(data, size, &pos, &record->seq) &&
           GetU32(data, size, &pos, &record->task) &&
           GetU32(data, size, &pos, &action) &&
           GetU32(data, size, &pos, &record->target_path);
      if (ok && action > 0xff) {
        return false;
      }
      record->action = static_cast<std::uint8_t>(action);
      break;
    }
    case RecordKind::kChargeSnapshot:
      ok = GetU32(data, size, &pos, &record->epoch) &&
           GetU32(data, size, &pos, &record->fraction_milli);
      break;
    case RecordKind::kSwapEpoch:
      ok = GetVarint(data, size, &pos, &record->old_hash) &&
           GetVarint(data, size, &pos, &record->new_hash) &&
           GetU32(data, size, &pos, &record->image_epoch);
      break;
  }
  // A sealed payload is consumed exactly; trailing bytes mean corruption.
  return ok && pos == size;
}

}  // namespace artemis::flight
