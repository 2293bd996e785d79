// Heap allocations per run: the multi-round programs keep their per-port
// state in one block per node, taken from the run's program arena, so a
// run's allocation count does not grow with the number of nodes; a run
// reads the graph's own tables, and a copy of a graph shares them, so
// neither allocates.
//
// This suite replaces the global operator new with a counting one, which
// is why it is its own executable (every *_test.cpp is).  The counter
// sees every allocation of the process; the test reads it around single
// run_algorithm calls, so gtest's own allocations stay outside.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "algo/bounded_degree.hpp"
#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/port_graph.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  // largest request since reset

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace eds::algo {
namespace {

/// Allocations made by one run_algorithm call.
std::size_t allocations_of(const port::PortedGraph& pg, Algorithm algorithm,
                           port::Port param,
                           const runtime::ExecOptions& exec) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const auto outcome = run_algorithm(pg, algorithm, param, exec);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(outcome.solution.size(), 0u);
  return after - before;
}

TEST(Alloc, MultiRoundProgramsMakeNoPerNodeAllocations) {
  struct Case {
    Algorithm algorithm;
    port::Port d;
    const char* label;
  };
  const Case cases[] = {
      {Algorithm::kBoundedDegree, 4, "A(4)"},
      {Algorithm::kOddRegular, 3, "odd-regular(3)"},
      {Algorithm::kDoubleCover, 4, "double-cover(4)"},
      {Algorithm::kPortOne, 4, "port-one"},
  };
  Rng rng(0xA110C);
  for (const Case& c : cases) {
    const auto small = test::random_ported_regular(1024, c.d, rng);
    const auto large = test::random_ported_regular(4096, c.d, rng);
    runtime::PlanCache cache;
    runtime::ExecOptions exec;
    exec.plan_cache = &cache;
    // Warm up: compile both plans and grow the run's pooled buffers.
    (void)run_algorithm(small, c.algorithm, c.d, exec);
    (void)run_algorithm(large, c.algorithm, c.d, exec);
    const std::size_t at_small = allocations_of(small, c.algorithm, c.d, exec);
    const std::size_t at_large = allocations_of(large, c.algorithm, c.d, exec);
    EXPECT_LT(at_large, at_small + 64)
        << c.label << ": " << at_small << " allocations at n = 1024, "
        << at_large << " at n = 4096";
  }
}

TEST(Alloc, TypedRunsMakeAFixedHandfulOfAllocations) {
  // A built-in factory's run on a warm lane (its pooled workspace already
  // sized for the graph) allocates exactly:
  //  * the one-lane ThreadPool make_policy builds;
  //  * the program arena's buffer: one chunk for port-one's block and its
  //    per-port flags, two for A(4)'s block and its port blocks;
  //  * the arena's record of the typed block;
  //  * the result's selection mask;
  //  * for A(4), the name "bounded-degree(delta=4)", past the short-string
  //    buffer, that the round-cap error would quote.
  // Nothing is allocated per node, and no NodeProgram* list is built.
  struct Case {
    std::unique_ptr<runtime::ProgramFactory> factory;
    std::size_t allocations;
  };
  Case cases[] = {{make_factory(Algorithm::kPortOne), 4},
                  {make_factory(Algorithm::kBoundedDegree, 4), 6}};
  Rng rng(0xA110E);
  const auto pg = test::random_ported_regular(4096, 4, rng);
  for (const Case& c : cases) {
    (void)runtime::run_synchronous(pg.ports(), *c.factory);  // warm up
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const auto result = runtime::run_synchronous(pg.ports(), *c.factory);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, c.allocations) << c.factory->name();
    EXPECT_EQ(result.selected.size(), pg.ports().num_ports());
  }
}

TEST(Alloc, PlansAreViewsThatAllocateNothing) {
  // A run without a cache reads the graph's tables exactly as a run that
  // counts its structure in a warm cache does: the same allocations, and
  // a copy of the graph costs none.
  Rng rng(0xA110D);
  const auto pg = test::random_ported_regular(4096, 4, rng);
  const BoundedDegreeFactory factory(4);
  runtime::PlanCache cache;
  runtime::RunOptions cached;
  cached.exec.plan_cache = &cache;
  const runtime::RunOptions uncached;
  (void)runtime::run_synchronous(pg.ports(), factory, cached);  // warm up
  const auto count = [&](const runtime::RunOptions& options) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const auto result = runtime::run_synchronous(pg.ports(), factory, options);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(result.stats.rounds, 78u);
    return after - before;
  };
  const std::size_t with_cache = count(cached);
  const std::size_t without = count(uncached);
  EXPECT_EQ(without, with_cache);
  EXPECT_EQ(cache.stats().misses, 1u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const port::PortGraph copy = pg.ports();
  const port::PortGraph second = copy;
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_TRUE(second == pg.ports());
  EXPECT_EQ(second.partner_flat().data(), pg.ports().partner_flat().data());
}

TEST(Alloc, BuilderRejectsOversizedDegreesBeforeAllocating) {
  // 2^32 ports: each table would take 16 GB.  The degree sum is checked
  // first, so nothing near a table's size is ever requested; the largest
  // request is the error message.
  std::vector<port::Port> degrees{0xFFFFFFFF, 1};
  g_largest.store(0, std::memory_order_relaxed);
  EXPECT_THROW((void)port::PortGraphBuilder(std::move(degrees)),
               InvalidArgument);
  EXPECT_LT(g_largest.load(std::memory_order_relaxed), 4096u);
}

TEST(Alloc, CompleteRejectsMoreEdgesThanEdgeIdsBeforeAllocating) {
  // K_92683's edge list would take 34 GB; its size is checked first.
  g_largest.store(0, std::memory_order_relaxed);
  EXPECT_THROW((void)graph::complete(92683), InvalidArgument);
  EXPECT_LT(g_largest.load(std::memory_order_relaxed), 4096u);
}

TEST(Alloc, RandomRegularChecksItsSizeBeforeAllocating) {
  // 3·10⁹ nodes of degree 4 fit NodeIds but make 6·10⁹ edges, and 5·10⁹
  // nodes do not fit; both are rejected before the circulant is built.
  Rng rng(0xA1110);
  for (const std::size_t n : {std::size_t{3000000000}, std::size_t{5000000000}}) {
    g_largest.store(0, std::memory_order_relaxed);
    EXPECT_THROW((void)graph::random_regular(n, 4, rng), InvalidArgument)
        << n;
    EXPECT_LT(g_largest.load(std::memory_order_relaxed), 4096u) << n;
  }
}

TEST(Alloc, MultiLaneRunsReuseTheIdlePool) {
  // After its first call, run_synchronous at four lanes takes the pool the
  // last call released, so it allocates exactly what a caller that keeps
  // its own pool and calls the factory's run does: no pool, no thread.
  Rng rng(0xA110F);
  const auto pg = test::random_ported_regular(1024, 4, rng);
  const BoundedDegreeFactory factory(4);
  runtime::RunOptions options;
  options.exec.threads = 4;
  ThreadPool own(4);
  const auto allocations = [&](const auto& run) {
    (void)run();  // warm up
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const auto result = run();
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(result.stats.rounds, 78u);
    return after - before;
  };
  const std::size_t kept = allocations(
      [&] { return factory.run(pg.ports(), options, own); });
  EXPECT_EQ(allocations([&] {
              return runtime::run_synchronous(pg.ports(), factory, options);
            }),
            kept);
}

}  // namespace
}  // namespace eds::algo
