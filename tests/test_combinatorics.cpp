#include "common/combinatorics.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/reference_search.h"

namespace sompi {
namespace {

TEST(Combinations, CountsMatchBinomial) {
  for (std::size_t n = 1; n <= 8; ++n) {
    for (std::size_t k = 1; k <= n; ++k) {
      std::size_t count = 0;
      for_each_combination(n, k, [&](const std::vector<std::size_t>&) { ++count; });
      EXPECT_DOUBLE_EQ(static_cast<double>(count), binomial(n, k)) << n << " choose " << k;
    }
  }
}

TEST(Combinations, LexicographicAndStrictlyIncreasing) {
  std::vector<std::vector<std::size_t>> seen;
  for_each_combination(4, 2, [&](const std::vector<std::size_t>& c) { seen.push_back(c); });
  const std::vector<std::vector<std::size_t>> expected{{0, 1}, {0, 2}, {0, 3},
                                                       {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(seen, expected);
}

TEST(Combinations, FullAndEmptySubset) {
  std::size_t count = 0;
  for_each_combination(3, 3, [&](const std::vector<std::size_t>& c) {
    ++count;
    EXPECT_EQ(c, (std::vector<std::size_t>{0, 1, 2}));
  });
  EXPECT_EQ(count, 1u);
  count = 0;
  for_each_combination(3, 0, [&](const std::vector<std::size_t>& c) {
    ++count;
    EXPECT_TRUE(c.empty());
  });
  EXPECT_EQ(count, 1u);
}

TEST(Combinations, RejectsKGreaterThanN) {
  EXPECT_THROW(for_each_combination(2, 3, [](const std::vector<std::size_t>&) {}),
               PreconditionError);
}

TEST(Tuples, EnumeratesFullProduct) {
  std::size_t count = 0;
  std::vector<std::size_t> last;
  for_each_tuple({2, 3, 2}, [&](const std::vector<std::size_t>& t) {
    ++count;
    last = t;
    EXPECT_LT(t[0], 2u);
    EXPECT_LT(t[1], 3u);
    EXPECT_LT(t[2], 2u);
  });
  EXPECT_EQ(count, 12u);
  EXPECT_EQ(last, (std::vector<std::size_t>{1, 2, 1}));
}

TEST(Tuples, SinglePosition) {
  std::size_t count = 0;
  for_each_tuple({5}, [&](const std::vector<std::size_t>&) { ++count; });
  EXPECT_EQ(count, 5u);
}

TEST(TupleOdometer, LexOrderAndChangeIndices) {
  // Last digit fastest; changed_from is the lowest index that differs from
  // the previous tuple (0 for the first).
  std::vector<std::vector<std::size_t>> seen;
  std::vector<std::size_t> changes;
  for_each_tuple_lex({2, 3}, [&](const std::vector<std::size_t>& t, std::size_t c) {
    seen.push_back(t);
    changes.push_back(c);
  });
  const std::vector<std::vector<std::size_t>> expected{{0, 0}, {0, 1}, {0, 2},
                                                       {1, 0}, {1, 1}, {1, 2}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(changes, (std::vector<std::size_t>{0, 1, 1, 0, 1, 1}));
}

TEST(TupleOdometer, VisitsSameSetAsColexEnumeration) {
  std::vector<std::vector<std::size_t>> lex, colex;
  const std::vector<std::size_t> radices{3, 2, 4};
  for_each_tuple_lex(radices,
                     [&](const std::vector<std::size_t>& t, std::size_t) { lex.push_back(t); });
  for_each_tuple(radices, [&](const std::vector<std::size_t>& t) { colex.push_back(t); });
  std::sort(lex.begin(), lex.end());
  std::sort(colex.begin(), colex.end());
  EXPECT_EQ(lex, colex);
}

TEST(TupleOdometer, SkipFromCutsExactlyTheSubtree) {
  // Cutting at level 0 from {1, 0, 0} skips every {1, *, *} tuple.
  TupleOdometer od({3, 2, 2});
  std::size_t advanced = 0;
  while (!od.done() && od.digits()[0] == 0) {
    od.advance();
    ++advanced;
  }
  EXPECT_EQ(advanced, 4u);  // {0,*,*} exhausted
  EXPECT_EQ(od.digits(), (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_DOUBLE_EQ(od.subtree_size(0), 4.0);
  const std::size_t changed = od.skip_from(0);
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(od.digits(), (std::vector<std::size_t>{2, 0, 0}));
  // Skipping the last root subtree exhausts the enumeration.
  od.skip_from(0);
  EXPECT_TRUE(od.done());
}

TEST(TupleOdometer, SkipFromDeepestLevelIsAdvance) {
  TupleOdometer a({2, 3});
  TupleOdometer b({2, 3});
  a.advance();
  b.skip_from(1);
  EXPECT_EQ(a.digits(), b.digits());
}

TEST(Binomial, KnownValues) {
  EXPECT_DOUBLE_EQ(binomial(12, 4), 495.0);
  EXPECT_DOUBLE_EQ(binomial(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(3, 5), 0.0);
}

}  // namespace
}  // namespace sompi
