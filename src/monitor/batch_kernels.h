// Branch-free class kernels for the batch monitor VM's cohort pass
// (src/monitor/compiled_batch.h). A cohort is a run of lane indices that
// all resolved to the SAME dispatch-table entry this pass, so the entry's
// decoded Summary (field, slot, threshold, destination state, compare op)
// is loop-invariant and every kernel below is a straight-line sweep over
// the cohort with no per-lane dispatch.
//
// Two shapes per kernel:
//  * indexed — the cohort is an arbitrary (ascending) lane-index list;
//    state/slot accesses are gathers/scatters through the list;
//  * dense   — the cohort is a contiguous lane range [base, base+len),
//    the common case when a tile's lanes march in lockstep; every access
//    is contiguous or constant-strided and the compiler's autovectorizer
//    gets a clean loop.
//
// The guard kernel is the mask-vectorized one: elapsed values are gathered
// into a contiguous scratch buffer, compared against the threshold as a
// vector, and the destination state is blended in under the compare mask.
// The kernels are restrict-qualified compare-select loops, which any
// optimizing compiler turns into cmov/blend code.
#ifndef SRC_MONITOR_BATCH_KERNELS_H_
#define SRC_MONITOR_BATCH_KERNELS_H_

#include <cstdint>

#include "src/monitor/vm_core.h"

namespace artemis::batch_kernels {

enum class GuardCmp : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

template <GuardCmp C>
inline bool Pass(double a, double threshold) {
  if constexpr (C == GuardCmp::kLt) {
    return a < threshold;
  } else if constexpr (C == GuardCmp::kLe) {
    return a <= threshold;
  } else if constexpr (C == GuardCmp::kGt) {
    return a > threshold;
  } else if constexpr (C == GuardCmp::kGe) {
    return a >= threshold;
  } else if constexpr (C == GuardCmp::kEq) {
    return a == threshold;
  } else {
    return a != threshold;
  }
}

// ---- elapsed gather (guard kernels) -----------------------------------
// out[k] = event.field - slots[lane_k * stride + slot], the canonical
// elapsed-time guard operand. The event-field switch is loop-invariant but
// events are AoS host objects, so this stays a gather; the payoff is that
// the subsequent compare-select runs over the contiguous `out`.

inline void GatherElapsedIndexed(const MonitorEvent* const* __restrict events,
                                 const std::uint32_t* __restrict lanes, std::uint32_t len,
                                 EventField field, const double* __restrict slots,
                                 std::uint32_t stride, std::uint16_t slot,
                                 double* __restrict out) {
  for (std::uint32_t k = 0; k < len; ++k) {
    const std::uint32_t lane = lanes[k];
    out[k] = VmFieldValue(field, *events[lane]) -
             slots[static_cast<std::size_t>(lane) * stride + slot];
  }
}

inline void GatherElapsedDense(const MonitorEvent* const* __restrict events,
                               std::uint32_t base, std::uint32_t len, EventField field,
                               const double* __restrict slots, std::uint32_t stride,
                               std::uint16_t slot, double* __restrict out) {
  for (std::uint32_t k = 0; k < len; ++k) {
    const std::uint32_t lane = base + k;
    out[k] = VmFieldValue(field, *events[lane]) -
             slots[static_cast<std::size_t>(lane) * stride + slot];
  }
}

// ---- guard compare-select ---------------------------------------------
// current[lane_k] = Pass(elapsed[k]) ? to : current[lane_k]. Guard failure
// self-loops by construction (the batch VM only summarizes
// kGuardElapsedCommit when the fail path is a bare kNoMatch), so "leave
// the state untouched" is the complete failure semantics.

template <GuardCmp C>
inline void GuardSelectIndexed(const double* __restrict elapsed,
                               const std::uint32_t* __restrict lanes, std::uint32_t len,
                               double threshold, std::uint16_t to,
                               std::uint16_t* __restrict current) {
  for (std::uint32_t k = 0; k < len; ++k) {
    const std::uint16_t kept = current[lanes[k]];
    current[lanes[k]] = Pass<C>(elapsed[k], threshold) ? to : kept;
  }
}

template <GuardCmp C>
inline void GuardSelectDense(const double* __restrict elapsed, std::uint32_t len,
                             double threshold, std::uint16_t to,
                             std::uint16_t* __restrict current) {
  for (std::uint32_t k = 0; k < len; ++k) {
    const std::uint16_t kept = current[k];
    current[k] = Pass<C>(elapsed[k], threshold) ? to : kept;
  }
}

// ---- unconditional commit ---------------------------------------------

inline void CommitIndexed(const std::uint32_t* __restrict lanes, std::uint32_t len,
                          std::uint16_t to, std::uint16_t* __restrict current) {
  for (std::uint32_t k = 0; k < len; ++k) {
    current[lanes[k]] = to;
  }
}

inline void CommitDense(std::uint32_t len, std::uint16_t to,
                        std::uint16_t* __restrict current) {
  for (std::uint32_t k = 0; k < len; ++k) {
    current[k] = to;
  }
}

// ---- store-field + commit ---------------------------------------------
// slots[lane * stride + slot] = event.field; current[lane] = to. No
// compare, so one fused sweep per cohort.

inline void StoreFieldCommitIndexed(const MonitorEvent* const* __restrict events,
                                    const std::uint32_t* __restrict lanes, std::uint32_t len,
                                    EventField field, std::uint16_t slot, std::uint16_t to,
                                    double* __restrict slots, std::uint32_t stride,
                                    std::uint16_t* __restrict current) {
  for (std::uint32_t k = 0; k < len; ++k) {
    const std::uint32_t lane = lanes[k];
    slots[static_cast<std::size_t>(lane) * stride + slot] = VmFieldValue(field, *events[lane]);
    current[lane] = to;
  }
}

inline void StoreFieldCommitDense(const MonitorEvent* const* __restrict events,
                                  std::uint32_t base, std::uint32_t len, EventField field,
                                  std::uint16_t slot, std::uint16_t to,
                                  double* __restrict slots, std::uint32_t stride,
                                  std::uint16_t* __restrict current) {
  for (std::uint32_t k = 0; k < len; ++k) {
    const std::uint32_t lane = base + k;
    slots[static_cast<std::size_t>(lane) * stride + slot] = VmFieldValue(field, *events[lane]);
    current[lane] = to;
  }
}

}  // namespace artemis::batch_kernels

#endif  // SRC_MONITOR_BATCH_KERNELS_H_
