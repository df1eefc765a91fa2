// CompiledSpecCache: a thread-safe, build-once cache of shared spec
// artifacts (src/monitor/shared_spec.h) keyed by spec text. A sweep over a
// grid of power schedules re-uses the same handful of property specs for
// hundreds of points; the cache guarantees the parse -> validate -> lower ->
// bytecode-compile pipeline runs exactly once per unique (spec text, stage)
// key, no matter how many workers request it concurrently — losers of the
// build race block until the winner's artifact is ready and then share it.
//
// The key is the scope and stage followed by the full spec text, so two
// different specs can never share an entry.
#ifndef SRC_SWEEP_SPEC_CACHE_H_
#define SRC_SWEEP_SPEC_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/base/status.h"
#include "src/kernel/app_graph.h"
#include "src/monitor/shared_spec.h"

namespace artemis {

class CompiledSpecCache {
 public:
  // Returns the artifact for (spec_text, stage), building it on first use.
  // `graph` must describe the same application for every request with the
  // same key (the sweep engine guarantees this by folding the app name into
  // `key_scope`). Thread-safe; concurrent requests for the same key
  // coalesce into one pipeline run.
  StatusOr<SharedSpecArtifactPtr> Get(const std::string& key_scope,
                                      const std::string& spec_text, const AppGraph& graph,
                                      SpecArtifactStage stage);

  // ---- statistics ------------------------------------------------------
  // Deterministic regardless of worker interleaving: `builds` counts unique
  // keys whose pipeline ran (coalesced waiters count as hits), `requests`
  // counts Get calls. Per-stage pipeline counters let tests assert the hit
  // path does zero pipeline work.
  std::uint64_t requests() const;
  std::uint64_t builds() const;
  std::uint64_t hits() const { return requests() - builds(); }
  std::uint64_t parses() const;
  std::uint64_t lowerings() const;
  std::uint64_t compilations() const;

 private:
  struct Entry {
    bool ready = false;
    Status status;
    SharedSpecArtifactPtr artifact;
  };

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  // std::map keeps deterministic iteration order (unused today, cheap).
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::uint64_t requests_ = 0;
  std::uint64_t builds_ = 0;
  std::uint64_t parses_ = 0;
  std::uint64_t lowerings_ = 0;
  std::uint64_t compilations_ = 0;
};

}  // namespace artemis

#endif  // SRC_SWEEP_SPEC_CACHE_H_
