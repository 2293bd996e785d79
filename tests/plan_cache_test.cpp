// PlanCache contract: entries are shared exactly when port structures are
// identical, concurrent lookups count one miss per structure, and runs
// through a cache are bit-identical to runs without one under every
// policy — the cache must be invisible except in its own counters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "algo/bounded_degree.hpp"
#include "algo/driver.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "lb/lower_bounds.hpp"
#include "port/io.hpp"
#include "port/lift.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/batch.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::port {

/// The test seam PortGraph befriends: gives `g` a copy of its tables with
/// a forged hash, which no pair of real graphs can be made to produce.
struct PortGraphTestAccess {
  static void set_hash(PortGraph& g, std::uint64_t hash) {
    auto tables = std::make_shared<PortGraph::Tables>(*g.tables_);
    tables->hash = hash;
    g.tables_ = std::move(tables);
  }
};

}  // namespace eds::port

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraph;
using test::EchoFactory;

TEST(PlanCache, HitsOnIdenticalStructureMissesOnDifferent) {
  auto rng = test::make_rng(0xCAC1);
  const auto a = test::random_ported_regular(12, 4, rng);
  const auto b = test::random_ported_regular(12, 4, rng);  // other numbering

  PlanCache cache;
  const auto plan_a1 = cache.get(a.ports());
  const auto plan_a2 = cache.get(a.ports());
  EXPECT_EQ(plan_a1.get(), plan_a2.get()) << "same structure must share";

  const auto plan_b = cache.get(b.ports());
  EXPECT_NE(plan_a1.get(), plan_b.get())
      << "a different port numbering is a different structure";
  EXPECT_TRUE(*plan_b == b.ports());
  EXPECT_FALSE(*plan_b == a.ports());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(PlanCache, StructurallyEqualGraphsShareAcrossObjects) {
  // Two *distinct* PortGraph objects with literally the same structure:
  // canonical ports of the same generator output.  They were built
  // separately, so their tables are not shared and the hit goes through
  // the table compare.
  const auto a = port::with_canonical_ports(graph::cycle(10));
  const auto b = port::with_canonical_ports(graph::cycle(10));
  ASSERT_NE(a.ports().partner_flat().data(), b.ports().partner_flat().data());
  PlanCache cache;
  EXPECT_EQ(cache.get(a.ports()).get(), cache.get(b.ports()).get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, CopiedGraphHitsOnItsSharedTables) {
  auto rng = test::make_rng(0xCAC2);
  const auto pg = test::random_ported_regular(64, 4, rng);
  PlanCache cache;
  const auto plan = cache.get(pg.ports());
  const PortGraph copy = pg.ports();
  ASSERT_EQ(copy.partner_flat().data(), pg.ports().partner_flat().data());
  EXPECT_EQ(cache.get(copy).get(), plan.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The O(1) path is the shared block alone: operator== takes shared
  // tables without walking them, so a structurally equal graph with
  // tables of its own goes through the compare and still matches, and a
  // different structure never does.
  const PortGraph rebuilt = port::from_port_graph_string(
      port::to_port_graph_string(pg.ports()));
  ASSERT_NE(rebuilt.partner_flat().data(), pg.ports().partner_flat().data());
  EXPECT_TRUE(*plan == rebuilt);
  EXPECT_EQ(cache.get(rebuilt).get(), plan.get());
  EXPECT_FALSE(*plan == test::random_ported_regular(64, 4, rng).ports());
}

TEST(PlanCache, CopiesShareTablesAndMovesLeaveAnEmptyGraph) {
  const auto a = port::with_canonical_ports(graph::cycle(10));
  const auto b = port::with_canonical_ports(graph::cycle(12));

  PortGraph copy = a.ports();
  EXPECT_EQ(copy.partner_flat().data(), a.ports().partner_flat().data());
  EXPECT_EQ(copy.offsets().data(), a.ports().offsets().data());
  EXPECT_EQ(copy.partner_node().data(), a.ports().partner_node().data());
  PortGraph moved = std::move(copy);
  EXPECT_EQ(moved.partner_flat().data(), a.ports().partner_flat().data());
  // NOLINTNEXTLINE(bugprone-use-after-move): the source is left empty.
  EXPECT_EQ(copy.num_nodes(), 0u);
  EXPECT_EQ(copy.num_ports(), 0u);
  EXPECT_EQ(copy.offsets().size(), 1u);
  EXPECT_TRUE(copy == PortGraph{});
  copy = b.ports();
  moved = std::move(copy);
  EXPECT_EQ(moved.partner_flat().data(), b.ports().partner_flat().data());
  EXPECT_TRUE(copy == PortGraph{});

  // A graph equals every copy of it and every graph of its structure, and
  // no other structure; the empty graph equals only empty graphs.
  const PortGraph kept = a.ports();
  moved = a.ports();
  EXPECT_TRUE(kept == a.ports());
  EXPECT_TRUE(kept == PortGraph(a.ports()));
  EXPECT_TRUE(kept == moved);
  EXPECT_TRUE(kept == port::with_canonical_ports(graph::cycle(10)).ports());
  EXPECT_FALSE(kept == b.ports());
  EXPECT_FALSE(kept == PortGraph{});
  EXPECT_TRUE(PortGraph{} == copy);
  EXPECT_FALSE(PortGraph{} == b.ports());
}

TEST(PlanCache, ForcedHashCollisionWithADifferentStructureMisses) {
  auto rng = test::make_rng(0xCAC3);
  const auto a = test::random_ported_regular(16, 4, rng);
  PortGraph b = test::random_ported_regular(16, 4, rng).ports();
  port::PortGraphTestAccess::set_hash(b, a.ports().structural_hash());
  ASSERT_EQ(structural_hash(b), structural_hash(a.ports()));

  PlanCache cache;
  const auto plan_a = cache.get(a.ports());
  const auto plan_b = cache.get(b);
  EXPECT_NE(plan_a.get(), plan_b.get());
  EXPECT_TRUE(*plan_b == b);
  EXPECT_FALSE(*plan_b == a.ports());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Both plans share one hash bucket and each graph still finds its own.
  EXPECT_EQ(cache.get(a.ports()).get(), plan_a.get());
  EXPECT_EQ(cache.get(b).get(), plan_b.get());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCache, ConcurrentLookupsCompileOnePlanPerStructure) {
  // 8 threads x 32 lookups over 3 structures: exactly 3 misses, and every
  // thread observes the same shared plan per structure.  Run under TSan
  // (EDS_TSAN=ON) this is the cache's race check.
  const auto g1 = port::with_canonical_ports(graph::cycle(9));
  const auto g2 = port::with_canonical_ports(graph::path(9));
  const auto g3 = port::with_canonical_ports(graph::complete(5));
  const PortGraph* graphs[] = {&g1.ports(), &g2.ports(), &g3.ports()};

  PlanCache cache;
  std::atomic<int> mismatches{0};
  std::vector<std::array<const PortGraph*, 3>> seen(8);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &graphs, &mismatches, &mine = seen[t]] {
      for (std::size_t i = 0; i < 32; ++i) {
        const auto& g = *graphs[i % 3];
        const auto plan = cache.get(g);
        if (!(*plan == g)) mismatches.fetch_add(1);
        mine[i % 3] = plan.get();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 8u * 32u - 3u);
  for (const auto& plans : seen) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(plans[k], cache.get(*graphs[k]).get());
    }
  }
}

TEST(PlanCache, ThousandJobSweepCompilesExactlyOnePlan) {
  // The acceptance point: a 1000-job sweep over one port-numbered graph —
  // the `edsim sweep --repeat 1000` shape — counts exactly 1 structure;
  // all 999 remaining jobs are cache hits.
  auto rng = test::make_rng(0x1000);
  const auto pg = test::random_ported_regular(16, 4, rng);
  const std::vector<algo::BatchItem> items(
      1000, algo::BatchItem{&pg, algo::Algorithm::kBoundedDegree, 4});

  PlanCache cache;
  const auto outcomes = algo::run_batch(items, 4, &cache);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 999u);
  ASSERT_EQ(outcomes.size(), 1000u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.solution, outcomes.front().solution);
    EXPECT_TRUE(outcome.stats == outcomes.front().stats);
  }
}

TEST(PlanCache, CachedPlansAreBitIdenticalToFreshOnesUnderEveryPolicy) {
  // The differential guarantee extended to the cached-plan path: for every
  // policy, a run through the cache equals a fresh-plan run field by field
  // (outputs, stats, trace, message-log order).
  auto rng = test::make_rng(0xCAC2);
  std::vector<port::PortGraph> graphs;
  graphs.push_back(test::random_ported_regular(18, 4, rng).ports());
  std::vector<Port> degrees(10);
  for (auto& deg : degrees) deg = static_cast<Port>(rng.below(5));
  graphs.push_back(port::random_port_graph(degrees, rng));  // multigraph

  PlanCache cache;
  for (const auto& g : graphs) {
    Port max_degree = 1;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      max_degree = std::max(max_degree, g.degree(static_cast<port::NodeId>(v)));
    }
    const algo::BoundedDegreeFactory bounded(max_degree);
    const EchoFactory echo(3);
    for (const auto* factory :
         std::initializer_list<const ProgramFactory*>{&bounded, &echo}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        RunOptions fresh;
        fresh.collect_trace = true;
        fresh.collect_messages = true;
        fresh.exec.threads = threads;
        const auto expected = run_synchronous(g, *factory, fresh);

        RunOptions cached = fresh;
        cached.exec.plan_cache = &cache;
        // Twice: a cold (miss) and a warm (hit) pass must both match.
        const auto got_cold = run_synchronous(g, *factory, cached);
        const auto got_warm = run_synchronous(g, *factory, cached);
        EXPECT_TRUE(got_cold == expected) << "threads=" << threads;
        EXPECT_TRUE(got_warm == expected) << "threads=" << threads;
      }
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(PlanCache, RunsReadTheirOwnGraphWhenTheCacheHoldsAnother) {
  // The cache keeps the first graph of each structure; a later run of an
  // independently built graph of that structure reads its own graph, so it
  // equals an uncached run field by field (outputs, stats, trace,
  // message-log order) at every lane count, sync and async alike.
  auto rng = test::make_rng(0xCAC4);
  std::vector<PortGraph> graphs;
  graphs.push_back(test::random_ported_regular(18, 4, rng).ports());
  graphs.push_back(port::random_port_graph({3, 0, 2, 5, 1, 4}, rng, 0.3));
  PlanCache cache;
  for (const auto& g : graphs) {
    const PortGraph twin =
        port::from_port_graph_string(port::to_port_graph_string(g));
    ASSERT_NE(twin.partner_flat().data(), g.partner_flat().data());
    (void)cache.get(twin);
    // Echo runs the NodeProgram* loop, A(5) its typed instantiation.
    const EchoFactory echo(3);
    const algo::BoundedDegreeFactory bounded(5);
    for (const auto* factory :
         std::initializer_list<const ProgramFactory*>{&echo, &bounded}) {
      for (const unsigned threads : test::policy_thread_counts()) {
        RunOptions fresh;
        fresh.collect_trace = true;
        fresh.collect_messages = true;
        fresh.exec.threads = threads;
        RunOptions cached = fresh;
        cached.exec.plan_cache = &cache;
        EXPECT_TRUE(run_synchronous(g, *factory, cached) ==
                    run_synchronous(g, *factory, fresh))
            << factory->name() << " threads=" << threads;
        AsyncOptions async;
        async.delay = {DelayKind::kUniform, 1, 5};
        EXPECT_TRUE(run_asynchronous(g, *factory, cached, async) ==
                    run_asynchronous(g, *factory, fresh, async))
            << factory->name() << " threads=" << threads;
      }
    }
  }
  // Every cached run (2 graphs x 2 factories x sync and async) hit the
  // twin's entry.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 8 * test::policy_thread_counts().size());
}

/// The structural-hash walk, recomputed here independently of the
/// library: splitmix64-mixed node count, degrees, then (node << 32 | port)
/// for every flat port's partner.
std::uint64_t walk_hash(const PortGraph& g) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto mix = [&state](std::uint64_t value) {
    state ^= value + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    std::uint64_t sm = state;
    state = splitmix64(sm);
  };
  mix(g.num_nodes());
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) mix(g.degree(v));
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (Port i = 1; i <= g.degree(v); ++i) {
      const auto dst = g.partner(v, i);
      mix((static_cast<std::uint64_t>(dst.node) << 32) | dst.port);
    }
  }
  return state;
}

TEST(StructuralHash, StoredHashMatchesTheWalkForEveryConstruction) {
  Rng rng(41);
  const auto pg = test::random_ported_regular(20, 4, rng);
  const auto lb = lb::even_lower_bound(4);
  const auto multigraph = port::random_port_graph({3, 0, 2, 5, 1}, rng, 0.3);
  const std::vector<std::pair<std::string, PortGraph>> built = {
      {"builder", test::figure2_multigraph_m()},
      {"random involution", multigraph},
      {"with_random_ports", pg.ports()},
      {"with_canonical_ports",
       port::with_canonical_ports(graph::petersen()).ports()},
      {"cyclic_lift", port::cyclic_lift(multigraph, 3, rng)},
      {"covering base", lb.covering_base},
      {"lower-bound cover", lb.ported.ports()},
      {"read_port_graph",
       port::from_port_graph_string(port::to_port_graph_string(multigraph))},
      {"default", PortGraph{}},
  };
  for (const auto& [how, g] : built) {
    EXPECT_EQ(structural_hash(g), walk_hash(g)) << how;
  }

  PortGraph copy = pg.ports();
  EXPECT_EQ(structural_hash(copy), walk_hash(copy));
  PortGraph moved = std::move(copy);
  EXPECT_EQ(structural_hash(moved), walk_hash(pg.ports()));
  // NOLINTNEXTLINE(bugprone-use-after-move): the source is left empty.
  EXPECT_EQ(copy.num_nodes(), 0u);
  EXPECT_EQ(structural_hash(copy), walk_hash(PortGraph{}));
  copy = multigraph;
  EXPECT_EQ(structural_hash(copy), walk_hash(multigraph));
  moved = std::move(copy);
  EXPECT_EQ(structural_hash(moved), walk_hash(multigraph));
  EXPECT_EQ(structural_hash(copy), walk_hash(PortGraph{}));
  EXPECT_NE(walk_hash(multigraph), walk_hash(pg.ports()));
}

}  // namespace
}  // namespace eds::runtime
