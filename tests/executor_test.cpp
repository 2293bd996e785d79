// The executor layer: the backend contract shared by InProcessExecutor and
// ProcessShardExecutor, the NDJSON wire codecs, and the process-sharding
// failure modes (worker death, protocol violations) that the in-process
// backend can never hit.
//
// Tests that fork real worker subprocesses resolve the edsim binary from
// the EDSIM_BIN_PATH compile definition (set by tests/CMakeLists.txt) with
// an EDSIM_BIN environment override, and skip when neither points at an
// executable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/shard.hpp"
#include "util/error.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

#define REQUIRE_EDSIM_OR_SKIP(var)                                        \
  const std::string var = test::edsim_binary();                           \
  if (var.empty()) GTEST_SKIP() << "edsim binary not found (set EDSIM_BIN)"

/// A job any backend can run: factory for in-process execution, JobSpec
/// for process shards.  The factory must outlive the returned job.
BatchJob shippable_job(const port::PortGraph& g, const ProgramFactory& factory,
                       const std::string& token, Port param,
                       Round max_rounds = 100000) {
  BatchJob job;
  job.graph = &g;
  job.factory = &factory;
  job.options.max_rounds = max_rounds;
  JobSpec spec;
  spec.algorithm = token;
  spec.param = param;
  spec.group = structural_hash(g);
  job.spec = spec;
  return job;
}

// ---------------------------------------------------------------------------
// Wire codecs.

TEST(WireCodec, JobRoundTripsIncludingGraphText) {
  const auto pg = port::with_canonical_ports(graph::cycle(5));
  WireJob job;
  job.index = 42;
  job.algorithm = "bounded-degree";
  job.param = 3;
  job.threads = 2;
  job.max_rounds = 12345;
  job.graph_text = port::to_port_graph_string(pg.ports());
  ASSERT_NE(job.graph_text.find('\n'), std::string::npos)
      << "the interesting case is multi-line text";

  const auto line = encode_wire_job(job);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one job = one line";
  const auto back = decode_wire_job(line);
  EXPECT_EQ(back.index, job.index);
  EXPECT_EQ(back.algorithm, job.algorithm);
  EXPECT_EQ(back.param, job.param);
  EXPECT_EQ(back.threads, job.threads);
  EXPECT_EQ(back.max_rounds, job.max_rounds);
  EXPECT_EQ(back.graph_text, job.graph_text);

  // The text form still parses into the same structure.
  const auto g = port::from_port_graph_string(back.graph_text);
  EXPECT_EQ(g.num_nodes(), pg.ports().num_nodes());
  EXPECT_EQ(structural_hash(g), structural_hash(pg.ports()));
}

TEST(WireCodec, ResultRoundTripsOutputsAndStats) {
  RunResult result;
  result.selected = {1, 1, 0, 0, 1};
  result.stats.rounds = 7;
  result.stats.messages_sent = 1234567890123ull;
  result.stats.ports_served = 42;

  const auto line = encode_wire_result(9, result);
  const auto parsed = decode_worker_line(line);
  ASSERT_EQ(parsed.kind, WorkerLine::Kind::kResult);
  EXPECT_EQ(parsed.index, 9u);
  EXPECT_TRUE(parsed.result == result);
}

TEST(WireCodec, ErrorAndSummaryRoundTrip) {
  const auto err =
      decode_worker_line(encode_wire_error(3, "bad \"quote\"\nand newline"));
  ASSERT_EQ(err.kind, WorkerLine::Kind::kError);
  EXPECT_EQ(err.index, 3u);
  EXPECT_EQ(err.message, "bad \"quote\"\nand newline");

  WorkerSummary summary;
  summary.jobs = 11;
  summary.plans_compiled = 4;
  summary.plan_hits = 7;
  const auto parsed = decode_worker_line(encode_worker_summary(summary));
  ASSERT_EQ(parsed.kind, WorkerLine::Kind::kSummary);
  EXPECT_EQ(parsed.summary.jobs, 11u);
  EXPECT_EQ(parsed.summary.plans_compiled, 4u);
  EXPECT_EQ(parsed.summary.plan_hits, 7u);
}

TEST(WireCodec, RejectsForeignSchemaAndMalformedLines) {
  WireJob job;
  job.algorithm = "port-one";
  job.graph_text = "ports 0\n";
  auto line = encode_wire_job(job);
  const auto pos = line.find("\"schema\":2");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, 10, "\"schema\":9");
  EXPECT_THROW((void)decode_wire_job(line), InvalidArgument);

  EXPECT_THROW((void)decode_wire_job("not json"), InvalidArgument);
  EXPECT_THROW((void)decode_wire_job("{\"schema\":1,\"job\":{}}"),
               InvalidArgument);
  EXPECT_THROW((void)decode_worker_line("{\"schema\":1,\"what\":{}}"),
               InvalidArgument);
  EXPECT_THROW(
      (void)decode_worker_line(encode_wire_result(0, {}) + "trailing"),
      InvalidArgument);
}

// ---------------------------------------------------------------------------
// The in-process backend behind the Executor interface.

TEST(InProcessExecutor, MatchesBatchRunnerThroughTheInterface) {
  auto rng = test::make_rng(0xE8EC);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = port::with_canonical_ports(graph::cycle(9));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs{
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
      shippable_job(b.ports(), *port_one, "port-one", 0),
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
  };

  const InProcessExecutor executor(3);
  const Executor& backend = executor;  // the polymorphic surface
  const auto direct = backend.run(jobs);
  const auto via_runner = BatchRunner(&executor).run(jobs);
  ASSERT_EQ(direct.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(direct[i] == via_runner[i]) << "job " << i;
  }

  std::vector<std::size_t> order;
  backend.run_streaming(jobs, [&](std::size_t i, RunResult&& result) {
    EXPECT_TRUE(result == direct[i]);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Process sharding: validation that needs no subprocess.

TEST(ProcessShardExecutor, RejectsUnshippableJobsUpFront) {
  const ProcessShardExecutor executor({"/bin/true"}, 2);
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  const auto factory = algo::make_factory(algo::Algorithm::kPortOne);

  BatchJob no_spec;
  no_spec.graph = &pg.ports();
  no_spec.factory = factory.get();
  EXPECT_THROW(
      executor.run_streaming({no_spec}, [](std::size_t, RunResult&&) {}),
      InvalidArgument);

  auto traced = shippable_job(pg.ports(), *factory, "port-one", 0);
  traced.options.collect_trace = true;
  EXPECT_THROW(
      executor.run_streaming({traced}, [](std::size_t, RunResult&&) {}),
      InvalidArgument);
  // stream() consults the backend's validate() before the driver starts,
  // so the misconfiguration surfaces here and not from the first next().
  EXPECT_THROW((void)BatchRunner(&executor).stream({traced}),
               InvalidArgument);

  // An empty batch spawns nothing and succeeds.
  executor.run_streaming({}, [](std::size_t, RunResult&&) { FAIL(); });
  EXPECT_THROW(ProcessShardExecutor({}, 1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Process sharding against the real worker binary.

TEST(ProcessShardExecutor, BitIdenticalToInProcessAcrossShardCounts) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x5A4D);
  const auto a = test::random_ported_regular(14, 4, rng);
  const auto b = port::with_canonical_ports(graph::cycle(10));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 4);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);

  std::vector<BatchJob> jobs;
  for (int r = 0; r < 3; ++r) {
    jobs.push_back(shippable_job(a.ports(), *bounded, "bounded-degree", 4));
    jobs.push_back(shippable_job(b.ports(), *port_one, "port-one", 0));
  }

  const auto expected = InProcessExecutor(2).run(jobs);
  for (const unsigned shards : {1u, 3u}) {
    const ProcessShardExecutor executor({bin, "worker"}, shards);
    std::vector<std::size_t> order;
    std::vector<RunResult> got(jobs.size());
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&& result) {
      order.push_back(i);
      got[i] = std::move(result);
    });
    ASSERT_EQ(order.size(), jobs.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << "delivery must be in job order";
      EXPECT_TRUE(got[i] == expected[i])
          << "job " << i << " differs at shards=" << shards;
    }
  }
}

TEST(ProcessShardExecutor, GroupAffinityKeepsPlanCountersExact) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x6A0F);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = test::random_ported_regular(16, 3, rng);
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);

  std::vector<BatchJob> jobs;
  for (int r = 0; r < 3; ++r) {
    jobs.push_back(shippable_job(a.ports(), *bounded, "bounded-degree", 3));
    jobs.push_back(shippable_job(b.ports(), *bounded, "bounded-degree", 3));
  }

  // More shards than structures: affinity must still send every repeat of
  // one structure to one worker, so exactly two plans are compiled overall
  // — the same counters a single in-process cache would report.
  const ProcessShardExecutor executor({bin, "worker"}, 4);
  (void)executor.run(jobs);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.jobs_shipped, jobs.size());
  EXPECT_EQ(stats.plans_compiled, 2u);
  EXPECT_EQ(stats.plan_hits, jobs.size() - 2);
  EXPECT_GE(stats.workers_spawned, 1u);
  EXPECT_LE(stats.workers_spawned, 2u) << "only non-empty shards are forked";
}

TEST(ProcessShardExecutor, JobErrorInsideAWorkerFollowsThePrefixRule) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(6));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 2);

  // One shard, jobs in order; job 2's round cap is too tight and fails in
  // the worker, which reports it and keeps going.
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(shippable_job(pg.ports(), *bounded, "bounded-degree", 2,
                                 i == 2 ? 1 : 100000));
  }
  const ProcessShardExecutor executor({bin, "worker"}, 1);
  std::vector<std::size_t> delivered;
  try {
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&&) {
      delivered.push_back(i);
    });
    FAIL() << "the failed job must be rethrown";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("process shard"), std::string::npos);
  }
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}));
}

TEST(ProcessShardExecutor, WorkerDeathFailsItsRemainingJobsWithTheExitStatus) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      5, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // The worker's --fail-after hook makes it exit 7 after two results.  In
  // strict mode (max_retries = 0 — the pre-resilience contract this test
  // pins; the default retries instead, see resilience_test.cpp) the
  // delivered prefix is exactly {0, 1} and the rethrow names the status.
  ProcessShardExecutor::Options strict;
  strict.max_retries = 0;
  const ProcessShardExecutor executor({bin, "worker", "--fail-after", "2"}, 1,
                                      strict);
  std::vector<std::size_t> delivered;
  try {
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&&) {
      delivered.push_back(i);
    });
    FAIL() << "a dead worker must surface as a failure";
  } catch (const ExecutionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("status 7"), std::string::npos) << what;
  }
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}));
}

TEST(ProcessShardExecutor, PostCompletionWorkerDeathStillFailsTheBatch) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(5));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      3, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // --fail-after 3 lets the worker answer every job and *then* die
  // without a summary: all results are delivered (they were verified in
  // order), but in strict mode the batch must still fail — the counters
  // are incomplete and the worker broke protocol.  (The resilient default
  // absorbs this as summaries_lost; see resilience_test.cpp.)
  ProcessShardExecutor::Options strict;
  strict.max_retries = 0;
  const ProcessShardExecutor executor({bin, "worker", "--fail-after", "3"}, 1,
                                      strict);
  std::vector<std::size_t> delivered;
  try {
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&&) {
      delivered.push_back(i);
    });
    FAIL() << "a post-completion death must surface as a failure";
  } catch (const ExecutionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after completing its jobs"), std::string::npos)
        << what;
    EXPECT_NE(what.find("status 7"), std::string::npos) << what;
  }
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1, 2}))
      << "delivery itself is complete before the failure";
}

TEST(ProcessShardExecutor, NonsenseWorkerCommandFailsEveryJobCleanly) {
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      3, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // /bin/false speaks no protocol and exits immediately; nothing is
  // delivered and the death is reported, with no hang and no zombie.
  // Strict mode keeps this fail-fast (retrying /bin/false would only
  // burn backoff sleeps; the breaker path is covered in resilience_test).
  ProcessShardExecutor::Options strict;
  strict.max_retries = 0;
  const ProcessShardExecutor executor({"/bin/false"}, 2, strict);
  std::size_t delivered = 0;
  EXPECT_THROW(executor.run_streaming(
                   jobs, [&](std::size_t, RunResult&&) { ++delivered; }),
               ExecutionError);
  EXPECT_EQ(delivered, 0u);
}

}  // namespace
}  // namespace eds::runtime
