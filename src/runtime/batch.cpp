#include "runtime/batch.hpp"

#include <exception>
#include <mutex>

#include "util/error.hpp"

namespace eds::runtime {

namespace {

void validate(const std::vector<BatchJob>& jobs) {
  for (const auto& job : jobs) {
    if (job.graph == nullptr || job.factory == nullptr) {
      throw InvalidArgument("BatchRunner: job requires a graph and a factory");
    }
  }
}

/// The in-order reorder buffer.  Pool lanes deposit per-job outcomes out of
/// order; the delivery cursor only ever advances over completed slots in
/// index order, which is what makes delivery deterministic.
struct ReorderBuffer {
  explicit ReorderBuffer(std::size_t jobs)
      : results(jobs), errors(jobs), done(jobs, 0) {}

  std::mutex mutex;
  std::vector<RunResult> results;
  std::vector<std::exception_ptr> errors;
  std::vector<char> done;
  std::size_t cursor = 0;  // first index not yet delivered
  bool stopped = false;    // delivery halted (job failure or callback throw)
  bool delivering = false;  // one lane is draining the ready prefix
  std::exception_ptr delivery_error;  // first exception from a callback

  /// After job `i`'s outcome has been stored in results[i]/errors[i]:
  /// deliver the ready prefix through `on_result`.  The `delivering` flag
  /// makes exactly one depositor the deliverer at a time, so callbacks
  /// never interleave and observe strictly increasing indices — but each
  /// callback runs *outside* the mutex, so a slow consumer never blocks
  /// other lanes from depositing results and pulling their next jobs.
  void deposit_and_flush(std::size_t i,
                         const BatchRunner::ResultCallback& on_result) {
    std::unique_lock<std::mutex> lock(mutex);
    done[i] = 1;
    if (delivering) return;  // the current deliverer will pick this up
    delivering = true;
    while (!stopped && cursor < done.size() && done[cursor] != 0) {
      if (errors[cursor]) {
        stopped = true;  // the prefix rule: nothing at or past a failure
        break;
      }
      const std::size_t idx = cursor++;
      RunResult result = std::move(results[idx]);
      lock.unlock();
      std::exception_ptr thrown;
      try {
        on_result(idx, std::move(result));
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      if (thrown) {
        delivery_error = thrown;
        stopped = true;
        break;
      }
    }
    delivering = false;
  }

  /// The post-drain rethrow: the callback's own failure wins (it is the
  /// earliest in delivery order by construction), else the lowest-indexed
  /// job failure.
  void rethrow_failures() const {
    if (delivery_error) std::rethrow_exception(delivery_error);
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }
};

}  // namespace

BatchRunner::BatchRunner(unsigned threads) : pool_(threads) {}

std::vector<RunResult> BatchRunner::run(
    const std::vector<BatchJob>& jobs) const {
  std::vector<RunResult> results(jobs.size());
  run_streaming(jobs, [&results](std::size_t i, RunResult&& result) {
    results[i] = std::move(result);
  });
  return results;
}

void BatchRunner::run_streaming(const std::vector<BatchJob>& jobs,
                                const ResultCallback& on_result) const {
  validate(jobs);
  ReorderBuffer buffer(jobs.size());
  pool_.run(jobs.size(), [&](std::size_t i) {
    try {
      buffer.results[i] =
          run_synchronous(*jobs[i].graph, *jobs[i].factory, jobs[i].options);
    } catch (...) {
      buffer.errors[i] = std::current_exception();
    }
    buffer.deposit_and_flush(i, on_result);
  });
  buffer.rethrow_failures();
}

}  // namespace eds::runtime
