#include "algo/all_edges.hpp"

#include "runtime/stage.hpp"

namespace eds::algo {

runtime::RunResult AllEdgesFactory::run(const runtime::ExecutionPlan& plan,
                                        const runtime::RunOptions& options,
                                        ThreadPool& pool) const {
  runtime::ProgramArena arena(plan.num_nodes());
  return runtime::run_block(
      plan, arena.emplace_block<AllEdgesProgram>(plan.num_nodes()), options,
      name(), pool);
}

}  // namespace eds::algo
