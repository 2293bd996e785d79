#include "runtime/plan_cache.hpp"

namespace eds::runtime {

std::shared_ptr<const ExecutionPlan> PlanCache::get(const port::PortGraph& g) {
  const std::uint64_t hash = structural_hash(g);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [first, last] = plans_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second->matches(g)) {
      ++stats_.hits;
      return it->second;
    }
  }
  ++stats_.misses;
  return plans_.emplace(hash, std::make_shared<const ExecutionPlan>(g))
      ->second;
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ExecutionPlan resolve_plan(const port::PortGraph& g, const ExecOptions& exec) {
  if (exec.plan_cache != nullptr) return *exec.plan_cache->get(g);
  return ExecutionPlan(g);
}

}  // namespace eds::runtime
