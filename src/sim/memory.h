// FRAM / SRAM memory models with per-component byte accounting.
//
// The MSP430FR5994 pairs 256 KB of non-volatile FRAM with 4 KB of volatile
// SRAM. Objects placed in the NVM arena persist across simulated power
// failures; objects in the RAM arena are reset to their initial value on
// every reboot. Byte accounting per component tag feeds the Table 2
// memory-requirements experiment.
#ifndef SRC_SIM_MEMORY_H_
#define SRC_SIM_MEMORY_H_

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <string_view>
#include <vector>

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

// Volatile arena: per-owner totals, plus the reset hooks of the regions
// that have one, invoked on every reboot so "SRAM" state actually loses its
// contents in the simulation.
class RamArena {
 public:
  explicit RamArena(std::size_t capacity_bytes = 4 * 1024) : capacity_(capacity_bytes) {}

  // Records `bytes` for `owner` under `label`; false once the arena is
  // over capacity. A region with a `reset` hook is restored by it on every
  // reboot.
  bool Allocate(MemOwner owner, std::size_t bytes, std::string_view label,
                std::function<void()> reset = {});

  // Invokes every reset hook; called by the MCU on each reboot.
  void LosePower();

  MemoryReport Report() const;
  std::size_t used() const { return used_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::array<std::size_t, kNumMemOwners> by_owner_{};
  std::vector<std::function<void()>> resets_;
};

// A value of type T registered with the volatile arena: reset to its initial
// value whenever the device reboots.
template <typename T>
class Volatile {
 public:
  Volatile(RamArena* arena, MemOwner owner, std::string_view label, T initial = T{})
      : initial_(initial), value_(initial) {
    if (arena != nullptr) {
      arena->Allocate(owner, sizeof(T), label, [this] { value_ = initial_; });
    }
  }

  T& get() { return value_; }
  const T& get() const { return value_; }
  void set(const T& v) { value_ = v; }

 private:
  T initial_;
  T value_;
};

// A value of type T registered with the non-volatile arena. Persistence is
// implicit; registration exists for byte accounting and design clarity.
template <typename T>
class Persistent {
 public:
  Persistent(NvmArena* arena, MemOwner owner, std::string_view label, T initial = T{})
      : value_(initial) {
    if (arena != nullptr) {
      (void)arena->Allocate(owner, sizeof(T), label);
    }
  }

  T& get() { return value_; }
  const T& get() const { return value_; }
  void set(const T& v) { value_ = v; }

 private:
  T value_;
};

}  // namespace artemis

#endif  // SRC_SIM_MEMORY_H_
