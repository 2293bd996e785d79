// A minimal fork-join thread pool.
//
// Both parallel execution layers of the runtime are built on this one
// primitive: run_plan shards the nodes of a single round across its lanes
// (run_synchronous leases the pool through IdleLease below), and
// BatchRunner fans independent (graph, program, options) jobs across them.
// The pool is deliberately tiny — persistent workers, one blocking
// run() that executes fn(0..tasks-1) with dynamic load balancing — because
// everything determinism-sensitive (merge order, result order) is handled by
// the callers, which always combine per-task results in task-index order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace eds {

/// Number of lanes to use for `requested` threads: `requested` itself, or
/// std::thread::hardware_concurrency() (at least 1) when `requested` is 0.
/// Clamped to kMaxLanes — results never depend on the lane count, so a
/// huge request must not exhaust OS threads.
inline constexpr unsigned kMaxLanes = 256;
[[nodiscard]] unsigned resolve_threads(unsigned requested) noexcept;

/// Splits item indices [0, items) into `shards` contiguous ranges whose
/// weight totals are as equal as a contiguous split allows, writing the
/// shards + 1 ascending boundaries into `bounds` (bounds[0] = 0,
/// bounds[shards] = items; shard s is [bounds[s], bounds[s + 1])).  The
/// engine uses this with per-node port counts as weights, so lanes get
/// equal *work* rather than equal node counts — on a power-law degree
/// sequence an equal-count split can hand one lane most of the ports.
///
/// Boundary s lands after the first item whose weight prefix reaches
/// total * s / shards; a single heavy item can absorb several targets, in
/// which case the following shards come out empty (callers iterate empty
/// ranges harmlessly).  All-zero weights fall back to an equal-count
/// split.  `weight_of(i)` must be pure; it is evaluated at most twice per
/// item.  Determinism note: results depend only on (weights, shards) —
/// never on thread scheduling — and any contiguous partition preserves a
/// shard-order merge, so the split cannot affect results, only balance.
template <typename WeightFn>
void balanced_shard_bounds(std::size_t items, std::size_t shards,
                           WeightFn&& weight_of,
                           std::vector<std::size_t>& bounds) {
  if (shards == 0) shards = 1;
  bounds.assign(shards + 1, items);
  bounds[0] = 0;
  if (shards == 1 || items == 0) return;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < items; ++i) total += weight_of(i);
  if (total == 0) {
    for (std::size_t s = 1; s < shards; ++s) bounds[s] = items * s / shards;
    return;
  }
  std::uint64_t prefix = 0;
  std::size_t s = 1;
  for (std::size_t i = 0; i < items && s < shards; ++i) {
    prefix += weight_of(i);
    while (s < shards && prefix * shards >= total * s) {
      bounds[s] = i + 1;
      ++s;
    }
  }
}

/// Persistent fork-join pool with `lanes` concurrent lanes (the calling
/// thread is one of them, so `lanes - 1` workers are spawned).
class ThreadPool {
 public:
  /// `threads` as in resolve_threads(); a pool with one lane degenerates to
  /// running everything inline on the caller.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned lanes() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Executes fn(i) for every i in [0, tasks), distributing indices across
  /// all lanes (the caller participates), and blocks until every call has
  /// returned.  `fn` must be safe to invoke concurrently and must not throw —
  /// callers that can fail capture std::exception_ptr per task themselves.
  /// One batch at a time: a multi-lane run() entered while a batch is
  /// running (from another thread, or from inside `fn`) throws
  /// InternalError.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void work_through_current_batch();

  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // current batch
  std::size_t tasks_ = 0;        // size of the current batch
  std::size_t next_task_ = 0;    // next unclaimed index
  std::size_t in_flight_ = 0;    // claimed but unfinished tasks
  std::uint64_t generation_ = 0; // bumped per batch so workers don't re-enter
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// A T of a given width (a ThreadPool, or anything else built from its lane
/// count) leased from one process-wide idle slot per type: the T the last
/// lease released, when its lane count matches and no other lease holds it,
/// else a new one.  On release the leased T becomes the idle one, and the
/// one it replaces is destroyed (its threads joined) after the slot's lock
/// is released.  So back-to-back calls of one width start their threads
/// once, while nested and concurrent calls get a T of their own.
template <class T>
class IdleLease {
 public:
  /// `threads` as in resolve_threads().
  explicit IdleLease(unsigned threads) : lanes_(resolve_threads(threads)) {
    Slot& idle = slot();
    {
      const std::lock_guard lock(idle.mutex);
      if (idle.object && idle.lanes == lanes_) {
        object_ = std::move(idle.object);
      }
    }
    if (!object_) object_ = std::make_unique<T>(lanes_);
  }

  ~IdleLease() {
    Slot& idle = slot();
    std::unique_ptr<T> retired;
    {
      const std::lock_guard lock(idle.mutex);
      retired = std::exchange(idle.object, std::move(object_));
      idle.lanes = lanes_;
    }
    // `retired` is destroyed here, after the lock is released.
  }

  IdleLease(const IdleLease&) = delete;
  IdleLease& operator=(const IdleLease&) = delete;

  [[nodiscard]] T& operator*() const noexcept { return *object_; }
  [[nodiscard]] T* operator->() const noexcept { return object_.get(); }

 private:
  struct Slot {
    std::mutex mutex;
    unsigned lanes = 0;
    std::unique_ptr<T> object;
  };
  static Slot& slot() {
    static Slot idle;
    return idle;
  }

  unsigned lanes_;
  std::unique_ptr<T> object_;
};

}  // namespace eds
