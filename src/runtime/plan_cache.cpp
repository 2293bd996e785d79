#include "runtime/plan_cache.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace eds::runtime {

PlanCache::PlanCache(std::size_t capacity, std::size_t max_bytes)
    : capacity_(std::max<std::size_t>(capacity, 1)), max_bytes_(max_bytes) {}

std::shared_ptr<const ExecutionPlan> PlanCache::get(const port::PortGraph& g) {
  const std::uint64_t hash = structural_hash(g);
  const std::lock_guard<std::mutex> lock(mutex_);

  if (const auto bucket = index_.find(hash); bucket != index_.end()) {
    for (const auto it : bucket->second) {
      if (it->plan->matches(g)) {
        lru_.splice(lru_.begin(), lru_, it);  // touch: move to front
        ++stats_.hits;
        return it->plan;
      }
    }
  }

  // Miss: compile under the lock, so concurrent get() calls on the same
  // structure build exactly one plan (the counters are load-bearing for
  // tests; serializing compilation is cheap next to the runs themselves).
  ++stats_.misses;
  auto plan = std::make_shared<const ExecutionPlan>(g);
  stats_.bytes += plan->memory_bytes();
  lru_.push_front({hash, std::move(plan)});
  index_[hash].push_back(lru_.begin());

  while (lru_.size() > capacity_ ||
         (stats_.bytes > max_bytes_ && lru_.size() > 1)) {
    const auto victim = std::prev(lru_.end());
    auto& bucket = index_[victim->hash];
    bucket.erase(std::find(bucket.begin(), bucket.end(), victim));
    if (bucket.empty()) index_.erase(victim->hash);
    stats_.bytes -= victim->plan->memory_bytes();
    lru_.erase(victim);
    ++stats_.evictions;
  }

  stats_.size = lru_.size();
  return lru_.front().plan;
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.size = 0;
  stats_.bytes = 0;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

const ExecutionPlan& resolve_plan(const port::PortGraph& g,
                                  const ExecOptions& exec,
                                  std::shared_ptr<const ExecutionPlan>& shared,
                                  std::optional<ExecutionPlan>& local) {
  if (exec.plan_cache != nullptr) {
    shared = exec.plan_cache->get(g);
    return *shared;
  }
  local.emplace(g);
  return *local;
}

}  // namespace eds::runtime
