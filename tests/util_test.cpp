// Tests for the utility layer: checks and their messages, RNG determinism
// and distribution sanity, descriptive statistics, and table rendering.

#include <gtest/gtest.h>

#include "planar/generators.hpp"
#include "tree/rooted_tree.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace plansep {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    PLANSEP_CHECK_MSG(1 == 2, "one is not two");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

// A check inside the library names its source relative to the repository
// (src/...), never by the absolute path of the checkout that built it, and
// without a line number, so an "error" row is the same bytes from any
// build tree and stays so when code above the check moves.
TEST(Check, LibraryFailureNamesSourceWithoutBuildPath) {
  const planar::GeneratedGraph gg = planar::path(4);
  try {
    tree::RootedSpanningTree t(gg.graph, 99, {});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    const std::string source = " at src/tree/rooted_tree.cpp";
    const std::size_t at = what.find(source);
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_NE(what.substr(at + source.size(), 1), ":") << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
    // This file is compiled by its absolute path, so the part before
    // tests/ is the checkout's root: the message must not name it.
    const std::string self = __FILE__;
    const std::string checkout = self.substr(0, self.rfind("tests/"));
    if (!checkout.empty()) {
      EXPECT_EQ(what.find(checkout), std::string::npos) << what;
    }
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> buckets(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const auto x = rng.next_below(10);
    ASSERT_LT(x, 10u);
    ++buckets[static_cast<std::size_t>(x)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, trials / 10 - trials / 50);
    EXPECT_LT(b, trials / 10 + trials / 50);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(9);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.next_in(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    lo_seen |= (x == -3);
    hi_seen |= (x == 3);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.118, 1e-3);
}

TEST(Stats, EmptyInputIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 123456);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("123456"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
  // All lines equal width for the header block.
  const auto nl = out.find('\n');
  ASSERT_NE(nl, std::string::npos);
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, FormatsBoolAndDouble) {
  Table t({"flag", "x"});
  t.add(true, 1.5);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
}

}  // namespace
}  // namespace plansep
