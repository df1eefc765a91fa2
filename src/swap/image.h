// Versioned monitor images for over-the-air hot swap (docs/hotswap.md).
//
// A MonitorImage is what a deployment ships to a running device: the fully
// compiled spec artifact plus a small header identifying it. The header
// carries two fields with distinct jobs:
//
//   * spec_hash — a content hash of the spec TEXT. Two devices running the
//     same hash run byte-identical monitor programs; the flight recorder's
//     swap-epoch record stores the (old, new) hash pair so post-mortem
//     tooling can stitch verdicts across versions.
//   * epoch     — a monotonically increasing installation counter. Hashes
//     are unordered (a rollback has a previously-seen hash), so freshness
//     is decided by the epoch alone: the swap controller refuses an image
//     whose epoch is not strictly greater than the installed one.
#ifndef SRC_SWAP_IMAGE_H_
#define SRC_SWAP_IMAGE_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/kernel/app_graph.h"
#include "src/monitor/shared_spec.h"

namespace artemis {

// Stable 64-bit FNV-1a over the raw spec text. Deliberately text-based, not
// IR-based: whitespace-only edits produce a new hash, which errs toward
// treating images as distinct — the safe direction for an OTA pipeline.
std::uint64_t SpecHash(const std::string& spec_text);

struct MonitorImageHeader {
  std::uint64_t spec_hash = 0;
  std::uint32_t epoch = 0;
};

struct MonitorImage {
  MonitorImageHeader header;
  // Always at SpecArtifactStage::kCompiled: hot swap migrates the dense
  // state-id + slot-vector form, so both sides must be bytecode images.
  SharedSpecArtifactPtr artifact;
};

// Runs the full pipeline (parse, validate, lower, compile) over `spec_text`
// and stamps the header. Fails on any pipeline error; the returned image is
// immutable and safe to share across threads.
StatusOr<MonitorImage> BuildMonitorImage(std::string spec_text, const AppGraph& graph,
                                         std::uint32_t epoch);

}  // namespace artemis

#endif  // SRC_SWAP_IMAGE_H_
