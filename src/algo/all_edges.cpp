#include "algo/all_edges.hpp"

#include "runtime/stage.hpp"

namespace eds::algo {

runtime::RunResult AllEdgesFactory::run(const port::PortGraph& g,
                                        const runtime::RunOptions& options,
                                        ThreadPool& pool) const {
  runtime::ProgramArena arena(g.num_nodes());
  return runtime::run_block(
      g, arena.emplace_block<AllEdgesProgram>(g.num_nodes()), options, name(),
      pool);
}

}  // namespace eds::algo
