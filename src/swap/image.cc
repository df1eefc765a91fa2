#include "src/swap/image.h"

#include <utility>

namespace artemis {

std::uint64_t SpecHash(const std::string& spec_text) {
  // FNV-1a 64 (offset basis / prime per the reference parameters).
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : spec_text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

StatusOr<MonitorImage> BuildMonitorImage(std::string spec_text, const AppGraph& graph,
                                         std::uint32_t epoch) {
  MonitorImage image;
  image.header.spec_hash = SpecHash(spec_text);
  image.header.epoch = epoch;
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(std::move(spec_text), graph, SpecArtifactStage::kCompiled);
  if (!artifact.ok()) {
    return artifact.status();
  }
  image.artifact = std::move(artifact).value();
  return image;
}

}  // namespace artemis
