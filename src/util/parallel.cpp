#include "util/parallel.hpp"

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace eds {

unsigned resolve_threads(unsigned requested) noexcept {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1u : hw;
  }
  return std::min(requested, kMaxLanes);
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned lanes = resolve_threads(threads);
  workers_.reserve(lanes - 1);
  for (unsigned i = 1; i < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;  // one lane: no worker to stop
  {
    const std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  wake_workers_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(std::size_t tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (workers_.empty() || tasks == 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  {
    const std::lock_guard lock(mutex_);
    if (fn_ != nullptr) {
      throw InternalError("ThreadPool::run: a batch is already running");
    }
    fn_ = &fn;
    tasks_ = tasks;
    next_task_ = 0;
    in_flight_ = 0;
    ++generation_;
  }
  wake_workers_.notify_all();
  work_through_current_batch();
  std::unique_lock lock(mutex_);
  batch_done_.wait(lock,
                   [this] { return next_task_ >= tasks_ && in_flight_ == 0; });
  fn_ = nullptr;
}

void ThreadPool::work_through_current_batch() {
  for (;;) {
    std::size_t index = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    {
      const std::lock_guard lock(mutex_);
      if (next_task_ >= tasks_) return;
      index = next_task_++;
      ++in_flight_;
      fn = fn_;
    }
    (*fn)(index);
    {
      const std::lock_guard lock(mutex_);
      --in_flight_;
      if (next_task_ >= tasks_ && in_flight_ == 0) batch_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      wake_workers_.wait(lock, [&] {
        return shutdown_ ||
               (generation_ != seen_generation && next_task_ < tasks_);
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    work_through_current_batch();
  }
}

}  // namespace eds
