#include "src/kernel/immortal.h"

namespace artemis {

std::uint32_t ImmortalContext::Begin(std::uint64_t id) {
  if (in_progress_ && item_ == id) {
    return cursor_;  // Resume the interrupted item.
  }
  item_ = id;
  cursor_ = 0;
  in_progress_ = true;
  return 0;
}

void ImmortalContext::Finish() {
  in_progress_ = false;
  cursor_ = 0;
}

}  // namespace artemis
