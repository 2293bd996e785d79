#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/fraction.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

namespace eds {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW((void)rng.below(0), InvalidArgument);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, RangeBadOrderThrows) {
  Rng rng(1);
  EXPECT_THROW((void)rng.range(3, 2), InvalidArgument);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(9);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 1, 2, 3, 5, 8, 13};
  auto w = v;
  rng.shuffle(w);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(w.begin(), w.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Fraction, NormalisesToLowestTerms) {
  const Fraction f(6, 8);
  EXPECT_EQ(f.num(), 3);
  EXPECT_EQ(f.den(), 4);
}

TEST(Fraction, NormalisesSign) {
  const Fraction f(3, -9);
  EXPECT_EQ(f.num(), -1);
  EXPECT_EQ(f.den(), 3);
}

TEST(Fraction, ZeroDenominatorThrows) {
  EXPECT_THROW(Fraction(1, 0), InvalidArgument);
}

TEST(Fraction, Arithmetic) {
  const Fraction a(1, 2);
  const Fraction b(1, 3);
  EXPECT_EQ(a + b, Fraction(5, 6));
  EXPECT_EQ(a - b, Fraction(1, 6));
  EXPECT_EQ(a * b, Fraction(1, 6));
  EXPECT_EQ(a / b, Fraction(3, 2));
}

TEST(Fraction, DivisionByZeroThrows) {
  EXPECT_THROW((void)(Fraction(1, 2) / Fraction(0, 5)), InvalidArgument);
}

TEST(Fraction, Ordering) {
  EXPECT_LT(Fraction(1, 3), Fraction(1, 2));
  EXPECT_GT(Fraction(7, 2), Fraction(10, 3));
  EXPECT_EQ(Fraction(2, 4), Fraction(1, 2));
}

TEST(Fraction, PaperBoundExamples) {
  // 4 - 2/d for d = 6 is 11/3; 4 - 6/(d+1) for d = 5 is 3.
  EXPECT_EQ(Fraction(4) - Fraction(2, 6), Fraction(11, 3));
  EXPECT_EQ(Fraction(4) - Fraction(6, 6), Fraction(3));
}

TEST(Fraction, Printing) {
  std::ostringstream os;
  os << Fraction(11, 3) << ' ' << Fraction(4);
  EXPECT_EQ(os.str(), "11/3 4");
}

TEST(Fraction, ToDouble) {
  EXPECT_DOUBLE_EQ(Fraction(11, 4).to_double(), 2.75);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Summary, EmptyIsSafe) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0), 1.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW((void)percentile({}, 50), InvalidArgument);
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t("demo");
  t.header({"a", "long-column"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("long-column"), std::string::npos);
}

TEST(TextTable, MismatchedRowThrows) {
  TextTable t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), InvalidArgument);
}

TEST(TextTable, CsvOutput) {
  TextTable t;
  t.header({"x", "y"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Text, TokenizerCutsAtBlanksAndComments) {
  using Tokens = std::vector<std::string_view>;
  Tokens tokens{"stale"};
  tokenize_line(" conn\t0 1  1 1\r", tokens);
  EXPECT_EQ(tokens, (Tokens{"conn", "0", "1", "1", "1"}));
  tokenize_line("0 1# note", tokens);
  EXPECT_EQ(tokens, (Tokens{"0", "1"}));
  tokenize_line("  \t\r", tokens);
  EXPECT_TRUE(tokens.empty());
  tokenize_line("# 0 1", tokens);
  EXPECT_TRUE(tokens.empty());
}

TEST(Text, SplitFieldsKeepsEmptyFields) {
  using Fields = std::vector<std::string_view>;
  EXPECT_EQ(split_fields("uniform:1:8", ':'), (Fields{"uniform", "1", "8"}));
  EXPECT_EQ(split_fields("fixed:3:", ':'), (Fields{"fixed", "3", ""}));
  EXPECT_EQ(split_fields("", ':'), (Fields{""}));
}

TEST(Text, NumbersAreDigitsThatFitTheirField) {
  const auto u64 = [](std::string_view text) {
    return parse_uint<std::uint64_t, InvalidArgument>(text, "n");
  };
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("007"), 7u);
  EXPECT_EQ(u64("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "-1", "+3", "0x10", " 4", "4 ", "1.5", "nan",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)u64(bad), InvalidArgument) << bad;
  }
  EXPECT_THROW((void)(parse_uint<std::uint32_t, InvalidArgument>("4294967296",
                                                                 "n")),
               InvalidArgument);
  EXPECT_EQ((parse_uint<std::uint32_t, InvalidArgument>("16", "n", 16)), 16u);
  try {
    (void)parse_uint<std::uint32_t, InvalidArgument>("17", "node count", 16);
    ADD_FAILURE() << "a value above the cap parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "node count 17 is out of range (max 16)");
  }
  EXPECT_EQ(parse_probability<InvalidArgument>("0.25", "p"), 0.25);
  for (const char* bad : {"", "nan", "inf", "1.5", "-0.5", "0.5x", " 0"}) {
    EXPECT_THROW((void)parse_probability<InvalidArgument>(bad, "p"),
                 InvalidArgument)
        << bad;
  }
}

TEST(Text, LineReaderSkipsEmptyLinesAndNamesTheLine) {
  std::istringstream in("# header\n\nports 2\r\n  \ndeg 1 x\n");
  LineReader<InvalidArgument> reader(in, "decoder");
  ASSERT_TRUE(reader.next());
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.number<std::size_t>(1, "node count"), 2u);
  ASSERT_TRUE(reader.next());
  try {
    (void)reader.number<std::uint32_t>(2, "degree");
    ADD_FAILURE() << "'x' parsed as a degree";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "decoder: line 5: degree needs a non-negative integer, "
                 "got 'x'");
  }
  EXPECT_THROW(reader.expect_size(2, "'deg'"), InvalidArgument);
  EXPECT_FALSE(reader.next());
}

TEST(Ensure, ThrowsInternalError) {
  EXPECT_THROW(EDS_ENSURE(false, "boom"), InternalError);
  EXPECT_NO_THROW(EDS_ENSURE(true, "fine"));
}

TEST(Ensure, MessageContainsContext) {
  try {
    EDS_ENSURE(1 == 2, "the message");
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ThreadPool, ASecondCallerThrowsWhileABatchRuns) {
  // A second run() once overwrote the running batch's state, and both
  // callers then waited forever.  Task 0 stays open until the second
  // caller has returned.
  ThreadPool pool(2);
  bool threw = false;
  pool.run(2, [&](std::size_t i) {
    if (i != 0) return;
    std::thread([&] {
      try {
        pool.run(2, [](std::size_t) {});
      } catch (const InternalError&) {
        threw = true;
      }
    }).join();
  });
  EXPECT_TRUE(threw);
  std::atomic<int> calls{0};
  pool.run(4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 4) << "the pool no longer runs a normal batch";
}

TEST(ThreadPool, ARunFromInsideATaskThrowsOnEveryLane) {
  // Each task waits for the other, so both lanes are inside the batch
  // when they call run() on their own pool.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  std::atomic<int> threw{0};
  pool.run(2, [&](std::size_t) {
    ++arrived;
    while (arrived.load() < 2) std::this_thread::yield();
    try {
      pool.run(2, [](std::size_t) {});
    } catch (const InternalError&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 2);
}

}  // namespace
}  // namespace eds
