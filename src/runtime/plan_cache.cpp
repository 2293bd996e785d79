#include "runtime/plan_cache.hpp"

namespace eds::runtime {

std::shared_ptr<const port::PortGraph> PlanCache::get(
    const port::PortGraph& g) {
  const std::uint64_t hash = structural_hash(g);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [first, last] = graphs_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (*it->second == g) {
      ++stats_.hits;
      return it->second;
    }
  }
  ++stats_.misses;
  return graphs_.emplace(hash, std::make_shared<const port::PortGraph>(g))
      ->second;
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace eds::runtime
