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
// Three consumption styles, all with identical per-job results:
//  * run()            — barrier on the whole batch, vector of results;
//  * run_streaming()  — a callback receives each result as soon as it *and
//    every earlier job* has finished (an in-order reorder buffer), so
//    long sweeps emit output incrementally instead of all at the end;
//  * stream()         — a pull-style BatchStream whose next() blocks for
//    the next in-order result while the batch keeps running behind it.
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
#include <memory>
#include <optional>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

/// One unit of batch work.  `graph` and `factory` are non-owning and must
/// outlive the run()/run_streaming()/stream() call.
struct BatchJob {
  const port::PortGraph* graph = nullptr;
  const ProgramFactory* factory = nullptr;
  RunOptions options;
};

class BatchStream;

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

  /// A stream's driver thread holds the runner's address.
  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Executes every job and returns their results in job order.  Throws
  /// InvalidArgument on a malformed job (null graph/factory) before any
  /// job starts; rethrows the lowest-indexed job failure after the batch
  /// drains.  Not safe for concurrent run() calls on one BatchRunner.
  [[nodiscard]] std::vector<RunResult> run(
      const std::vector<BatchJob>& jobs) const;

  /// Executes every job, delivering each result through `on_result` as
  /// soon as its whole prefix has completed — deterministic job order with
  /// no full-batch barrier.  Error handling as in run(): the batch drains,
  /// results from the lowest failure onward are withheld, and the failure
  /// (or the first exception thrown by `on_result` itself) is rethrown.
  void run_streaming(const std::vector<BatchJob>& jobs,
                     const ResultCallback& on_result) const;

  /// Starts the batch on a background driver and returns a pull-style
  /// stream of in-order results.  Malformed jobs are rejected here, before
  /// the driver starts.  The BatchRunner (and every job's graph and
  /// factory) must outlive the stream; no other run()/run_streaming()
  /// /stream() call may execute on this runner until the stream is
  /// destroyed (the pool runs one batch at a time).
  [[nodiscard]] std::unique_ptr<BatchStream> stream(
      std::vector<BatchJob> jobs) const;

 private:
  mutable ThreadPool pool_;
};

/// Pull-side of BatchRunner::stream(): next() blocks until the next job in
/// index order has finished and yields its result, returning nullopt once
/// the batch is exhausted.  If the next job failed, next() rethrows its
/// exception and the stream ends (later results are discarded, matching
/// run_streaming's prefix rule).  Destroying the stream drains the batch:
/// undelivered jobs still execute, the pool's lanes finish, and only then
/// does the destructor return.  Not thread-safe: one consumer at a time.
class BatchStream {
 public:
  /// One delivered result and the job index it belongs to.
  struct Item {
    std::size_t index = 0;
    RunResult result;
  };

  ~BatchStream();
  BatchStream(const BatchStream&) = delete;
  BatchStream& operator=(const BatchStream&) = delete;

  /// Blocks for the next in-order result; nullopt when the batch is done.
  [[nodiscard]] std::optional<Item> next();

 private:
  friend class BatchRunner;
  struct Impl;
  explicit BatchStream(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace eds::runtime
