// Local-continuation support for power-failure-resilient step sequences,
// modelled after the ImmortalThreads library the paper uses to make
// generated monitors intermittently executable (Section 4.2.3).
//
// An ImmortalContext persists a step cursor keyed by a work-item id. A
// client processing N steps for item `id` asks Begin(id, N): if the same
// item was interrupted earlier, the saved cursor is returned and completed
// steps are skipped; otherwise the cursor starts at zero. The client calls
// CompleteSteps as steps become durable and Finish when the item is done.
#ifndef SRC_KERNEL_IMMORTAL_H_
#define SRC_KERNEL_IMMORTAL_H_

#include <cstdint>

namespace artemis {

class ImmortalContext {
 public:
  // Starts (or resumes) processing of work item `id`. Returns the index of
  // the first step that still needs to run (0 for a fresh item).
  std::uint32_t Begin(std::uint64_t id);

  // Marks `count` more steps of the current item durably complete.
  void CompleteSteps(std::uint32_t count) { cursor_ += count; }

  // Marks the current item fully processed.
  void Finish();

  bool InProgress() const { return in_progress_; }
  // Steps of the current item completed so far (0 when none is in progress).
  std::uint32_t cursor() const { return cursor_; }

 private:
  // These three fields model FRAM-resident variables: they survive simulated
  // power failures because the simulation never destroys this object.
  std::uint64_t item_ = 0;
  std::uint32_t cursor_ = 0;
  bool in_progress_ = false;
};

}  // namespace artemis

#endif  // SRC_KERNEL_IMMORTAL_H_
