// The per-lane workspace lease both engines (run_plan and AsyncPolicy::run)
// run on.
#pragma once

#include <memory>

namespace eds::runtime {

/// Hands a run its thread's pooled workspace W, reused run after run, or —
/// when this thread is already inside a run, because a NodeProgram started
/// a nested run from receive() — a private W of its own, so the nested run
/// never clobbers the buffers its caller is reading from.  On release the
/// lease calls `end_run(pooled)` on the workspace: the engine's end-of-run
/// accounting.
template <class W>
class WorkspaceLease {
 public:
  WorkspaceLease()
      : pooled_(acquire()),
        private_(pooled_ ? nullptr : std::make_unique<W>()) {}
  ~WorkspaceLease() {
    (**this).end_run(pooled_ != nullptr);
    if (pooled_) pooled_->in_use = false;
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] W& operator*() const noexcept {
    return pooled_ ? pooled_->workspace : *private_;
  }

 private:
  struct Lane {
    W workspace;
    bool in_use = false;
  };
  static Lane* acquire() {
    thread_local Lane lane;
    if (lane.in_use) return nullptr;
    lane.in_use = true;
    return &lane;
  }

  Lane* pooled_;
  std::unique_ptr<W> private_;
};

}  // namespace eds::runtime
