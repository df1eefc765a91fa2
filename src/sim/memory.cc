#include "src/sim/memory.h"

#include <string>

namespace artemis {

const char* MemOwnerName(MemOwner owner) {
  switch (owner) {
    case MemOwner::kRuntime:
      return "runtime";
    case MemOwner::kMonitor:
      return "monitor";
    case MemOwner::kApp:
      return "app";
    case MemOwner::kKernel:
      return "kernel";
    case MemOwner::kFlight:
      return "flight";
  }
  return "?";
}

namespace {

// The report of per-owner totals: every owner with registered bytes.
MemoryReport ReportOf(const std::array<std::size_t, kNumMemOwners>& by_owner,
                      std::size_t total) {
  MemoryReport report;
  report.total = total;
  for (std::size_t i = 0; i < by_owner.size(); ++i) {
    if (by_owner[i] > 0) {
      report.by_owner[static_cast<MemOwner>(i)] = by_owner[i];
    }
  }
  return report;
}

}  // namespace

Status NvmArena::Check(MemOwner owner, std::size_t bytes, std::string_view label) const {
  if (used_ <= capacity_ && bytes <= capacity_ - used_) {
    return Status::Ok();
  }
  const std::size_t remaining = capacity_ > used_ ? capacity_ - used_ : 0;
  return Status::ResourceExhausted(
      "NVM arena exhausted: '" + std::string(label) + "' (" + MemOwnerName(owner) +
      ") requested " + std::to_string(bytes) + " bytes with only " +
      std::to_string(remaining) + " of " + std::to_string(capacity_) + " remaining");
}

Status NvmArena::Allocate(MemOwner owner, std::size_t bytes, std::string_view label) {
  Status status = Check(owner, bytes, label);
  by_owner_[static_cast<std::size_t>(owner)] += bytes;
  used_ += bytes;
  if (!status.ok() && exhaustion_.ok()) {
    exhaustion_ = status;
  }
  return status;
}

MemoryReport NvmArena::Report() const { return ReportOf(by_owner_, used_); }

void RamArena::Allocate(MemOwner owner, std::size_t bytes) {
  by_owner_[static_cast<std::size_t>(owner)] += bytes;
  used_ += bytes;
}

MemoryReport RamArena::Report() const { return ReportOf(by_owner_, used_); }

}  // namespace artemis
