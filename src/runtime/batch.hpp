// BatchRunner: many independent synchronous executions fanned across an
// in-process thread pool.
//
// Sweeps, tables and benchmarks all share the same shape — run dozens to
// thousands of (graph, program-factory, options) jobs and fold the results.
// BatchRunner is the one entry point for that shape.  It owns a ThreadPool
// of `threads` lanes, reused by every call, and each job runs
// run_synchronous under its own RunOptions on one lane.  Results come back
// in job order, so output is deterministic regardless of thread count.
//
// Two consumption styles, both with identical per-job results:
//  * run()            — barrier on the whole batch, vector of results;
//  * run_streaming()  — a callback receives each result as soon as it *and
//    every earlier job* has finished (an in-order reorder buffer), so
//    long sweeps emit output incrementally instead of all at the end.
//
// Factories are shared across jobs and threads; ProgramFactory::create()
// is const and every factory in this library is stateless, so concurrent
// create() calls are safe.  If a job throws, the batch completes the
// remaining jobs and then rethrows the failure of the *lowest-indexed*
// failed job — again independent of scheduling.  Streaming delivers the
// result prefix before that failure and nothing at or after it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

/// One unit of batch work.  `graph` and `factory` are non-owning and must
/// outlive the run()/run_streaming() call.
struct BatchJob {
  const port::PortGraph* graph = nullptr;
  const ProgramFactory* factory = nullptr;
  RunOptions options;
};

class BatchRunner {
 public:
  /// Receives result `index` once jobs 0..index have all completed.  Calls
  /// are serialized and arrive in strictly increasing index order, but may
  /// come from any pool lane.
  using ResultCallback =
      std::function<void(std::size_t index, RunResult&& result)>;

  /// `threads` as in ExecOptions: number of concurrent jobs, 0 = one per
  /// hardware thread.  The pool is created once and reused by every call.
  explicit BatchRunner(unsigned threads = 0);

  /// Executes every job and returns their results in job order.  Throws
  /// InvalidArgument on a malformed job (null graph/factory) before any
  /// job starts; rethrows the lowest-indexed job failure after the batch
  /// drains.  One batch at a time: a call that hands the pool a batch of
  /// two or more jobs while another call's batch runs there throws
  /// InternalError (ThreadPool::run).
  [[nodiscard]] std::vector<RunResult> run(
      const std::vector<BatchJob>& jobs) const;

  /// Executes every job, delivering each result through `on_result` as
  /// soon as its whole prefix has completed — deterministic job order with
  /// no full-batch barrier.  Error handling as in run(): the batch drains,
  /// results from the lowest failure onward are withheld, and the failure
  /// (or the first exception thrown by `on_result` itself) is rethrown.
  void run_streaming(const std::vector<BatchJob>& jobs,
                     const ResultCallback& on_result) const;

 private:
  mutable ThreadPool pool_;
};

}  // namespace eds::runtime
