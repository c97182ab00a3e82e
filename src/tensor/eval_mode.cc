#include "tensor/eval_mode.h"

namespace fewner::tensor {

WorkspaceArena& WorkspaceArena::ThreadLocal() {
  static thread_local WorkspaceArena arena;
  return arena;
}

std::shared_ptr<internal::Node> WorkspaceArena::Acquire() {
  const size_t n = pool_.size();
  const size_t scan = n < kMaxScan ? n : kMaxScan;
  for (size_t step = 0; step < scan; ++step) {
    if (cursor_ >= n) cursor_ = 0;
    std::shared_ptr<internal::Node>& slot = pool_[cursor_++];
    // use_count == 1 means only the pool holds the node: every Tensor handle
    // to this output has been dropped, so its buffer can be reused.
    if (slot.use_count() == 1) {
      ++reuses_;
      internal::Node* node = slot.get();
      node->requires_grad = false;
      node->inputs.clear();
      node->backward = nullptr;
      return slot;
    }
  }
  ++allocs_;
  pool_.push_back(std::make_shared<internal::Node>());
  pool_.back()->pooled = true;
  cursor_ = 0;
  return pool_.back();
}

void WorkspaceArena::Clear() {
  for (const std::shared_ptr<internal::Node>& node : pool_) node->pooled = false;
  pool_.clear();
  cursor_ = 0;
}

}  // namespace fewner::tensor
