// FRAM / SRAM memory models with per-component byte accounting.
//
// The MSP430FR5994 pairs 256 KB of non-volatile FRAM with 4 KB of volatile
// SRAM. Both arenas only count bytes: registration records which state the
// design keeps in FRAM or SRAM and what it costs. Byte accounting per
// component tag feeds the Table 2 memory-requirements experiment.
#ifndef SRC_SIM_MEMORY_H_
#define SRC_SIM_MEMORY_H_

#include <array>
#include <cstddef>
#include <map>
#include <string_view>

#include "src/base/status.h"
#include "src/base/time.h"

namespace artemis {

// Component tags used for the Table 2 breakdown.
enum class MemOwner { kRuntime, kMonitor, kApp, kKernel, kFlight };
inline constexpr int kNumMemOwners = static_cast<int>(MemOwner::kFlight) + 1;

const char* MemOwnerName(MemOwner owner);

struct MemoryReport {
  std::size_t total = 0;
  std::map<MemOwner, std::size_t> by_owner;
};

// Non-volatile arena: accounting only; persistence is the default for C++
// objects in a single-process simulation, so registration records *which*
// state the design keeps in FRAM and how many bytes it costs. The arena
// keeps per-owner totals, not a list of regions: a region's label only
// names it in the exhaustion error.
class NvmArena {
 public:
  explicit NvmArena(std::size_t capacity_bytes = 256 * 1024) : capacity_(capacity_bytes) {}

  // Records an allocation. On exhaustion returns kResourceExhausted naming
  // the requesting subsystem and the bytes that remained (the allocation is
  // still recorded so reports show the overflow).
  Status Allocate(MemOwner owner, std::size_t bytes, std::string_view label);

  MemoryReport Report() const;
  std::size_t used() const { return used_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::array<std::size_t, kNumMemOwners> by_owner_{};
};

// Volatile arena: per-owner totals of the SRAM the design uses.
class RamArena {
 public:
  // Records `bytes` for `owner`.
  void Allocate(MemOwner owner, std::size_t bytes);

  MemoryReport Report() const;

 private:
  std::size_t used_ = 0;
  std::array<std::size_t, kNumMemOwners> by_owner_{};
};

}  // namespace artemis

#endif  // SRC_SIM_MEMORY_H_
