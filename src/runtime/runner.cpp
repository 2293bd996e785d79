#include "runtime/runner.hpp"

#include <sstream>

#include "runtime/async.hpp"
#include "runtime/engine.hpp"
#include "runtime/plan_cache.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

namespace {

/// Calls run(pool) on a pool of `exec.threads` lanes: make_policy's, which
/// starts no thread, for one lane, else the idle pool of that width.
template <class Run>
RunResult on_pool(const ExecOptions& exec, const Run& run) {
  if (resolve_threads(exec.threads) == 1) return run(*make_policy(exec));
  const IdleLease<ThreadPool> pool(exec.threads);
  return run(*pool);
}

}  // namespace

std::string format_transcript(const RunResult& result) {
  std::ostringstream os;
  if (!result.messages_collected) {
    os << "(no transcript: the run was executed without "
          "RunOptions::collect_messages)\n";
  } else if (result.message_log.empty()) {
    os << "(no messages were delivered)\n";
  }
  Round current = 0;
  for (const auto& m : result.message_log) {
    if (m.round != current) {
      current = m.round;
      os << "--- round " << current << " ---\n";
    }
    os << "  (" << m.from.node << ',' << m.from.port << ") -> (" << m.to.node
       << ',' << m.to.port << ")  tag=" << m.payload.tag << " ["
       << m.payload.arg[0] << ' ' << m.payload.arg[1] << ' '
       << m.payload.arg[2] << "]\n";
  }
  os << "rounds: " << result.stats.rounds
     << ", messages: " << result.stats.messages_sent << '\n';
  return os.str();
}

RunResult run_synchronous(const port::PortGraph& g,
                          const ProgramFactory& factory,
                          const RunOptions& options) {
  if (options.exec.async) {
    // Model dispatch: an ExecOptions::async turns this entry point into the
    // event-driven engine (see runtime/async.hpp for the full result).
    return run_asynchronous(g, factory, options, *options.exec.async).run;
  }
  // A plan cache only counts the structure; the run reads g itself.
  if (PlanCache* cache = options.exec.plan_cache) (void)cache->get(g);
  return on_pool(options.exec, [&](ThreadPool& pool) {
    return factory.run(g, options, pool);
  });
}

RunResult run_synchronous_programs(
    const port::PortGraph& g,
    std::vector<std::unique_ptr<NodeProgram>> programs,
    const RunOptions& options, const std::string& name) {
  if (programs.size() != g.num_nodes()) {
    throw InvalidArgument(
        "run_synchronous_programs: one program per node required");
  }
  for (const auto& p : programs) {
    if (!p) {
      throw InvalidArgument("run_synchronous_programs: null program");
    }
  }
  if (PlanCache* cache = options.exec.plan_cache) (void)cache->get(g);
  if (options.exec.async) {
    return AsyncPolicy(*options.exec.async)
        .run(g, programs, options, name)
        .run;
  }
  return on_pool(options.exec, [&](ThreadPool& pool) {
    return run_plan(g, programs, options, name, pool);
  });
}

}  // namespace eds::runtime
