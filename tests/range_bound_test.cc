// findHi (Alg. 3 lines 16-21) after the selection rewrite: quickselect-style
// partial selection (FindRangeBoundNeed over RangeCostNeed's integer need)
// must return exactly what a full-sort implementation returns — including
// at ties, at the total-mass-below-target fallback, and for fractional
// double targets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "engine/peel_kernels.h"

namespace receipt {
namespace {

using SupportCost = std::vector<std::pair<Count, Count>>;

/// The coarse step's bound for a double target.
Count BoundAt(SupportCost& sc, double target) {
  return engine::FindRangeBoundNeed(sc, engine::RangeCostNeed(target));
}

/// Reference: full sort + double cumulative walk.
Count ReferenceBound(SupportCost sc, double target) {
  if (sc.empty()) return kInvalidCount;
  std::sort(sc.begin(), sc.end());
  double cumulative = 0.0;
  for (const auto& [support, cost] : sc) {
    cumulative += static_cast<double>(cost);
    if (cumulative >= target) return support + 1;
  }
  return sc.back().first + 1;
}

TEST(RangeBoundSelectionTest, TieBreakingAtEqualSupportValues) {
  // All the cost mass sits on one support value: the crossing support is
  // that value no matter which of the tied entries "crosses" — the bound
  // must not depend on the order of equal-support entries.
  const SupportCost base = {{5, 3}, {5, 3}, {5, 3}, {2, 1}};
  SupportCost sc = base;
  EXPECT_EQ(BoundAt(sc, 4.0), 6u);
  // Crossing exactly at the first tied entry, and past the last one.
  sc = base;
  EXPECT_EQ(BoundAt(sc, 2.0), 6u);
  sc = base;
  EXPECT_EQ(BoundAt(sc, 10.0), 6u);
  // Below the tie block entirely.
  sc = base;
  EXPECT_EQ(BoundAt(sc, 1.0), 3u);

  // Every permutation of a tie-heavy input yields the same bound.
  SupportCost perm = {{7, 2}, {7, 5}, {3, 1}, {7, 2}, {3, 4}, {9, 1}};
  std::sort(perm.begin(), perm.end());
  do {
    for (const double target : {1.0, 4.0, 5.0, 6.0, 14.0, 15.0, 100.0}) {
      SupportCost copy = perm;
      EXPECT_EQ(BoundAt(copy, target),
                ReferenceBound(perm, target))
          << "target " << target;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(RangeBoundSelectionTest, MatchesReferenceOnRandomInputs) {
  std::mt19937 rng(12345);
  for (int trial = 0; trial < 60; ++trial) {
    // Large enough to exercise the partition loop (> the sort cutoff),
    // with heavy support collisions so ties cross partition pivots.
    const size_t n = 200 + rng() % 300;
    const Count support_range = 1 + rng() % 40;
    SupportCost sc(n);
    Count total = 0;
    for (auto& [support, cost] : sc) {
      support = rng() % support_range;
      cost = rng() % 9;  // zero-cost entries must not move the bound
      total += cost;
    }
    for (const double target :
         {1.0, 2.5, static_cast<double>(total) / 7.0,
          static_cast<double>(total) / 2.0, static_cast<double>(total),
          static_cast<double>(total) + 5.0}) {
      SupportCost copy = sc;
      EXPECT_EQ(BoundAt(copy, target),
                ReferenceBound(sc, target))
          << "trial " << trial << " target " << target;
    }
  }
}

TEST(RangeBoundSelectionTest, EarlyTargetTouchesOnlyLowPartitions) {
  // A tiny target lands on the minimum support: the partial selection must
  // return min+1 without needing the high entries ordered (sanity via the
  // result; the cost argument is the point of the rewrite).
  std::mt19937 rng(99);
  SupportCost sc(5000);
  for (auto& [support, cost] : sc) {
    support = 10 + rng() % 100000;
    cost = 1 + rng() % 5;
  }
  sc[4999] = {3, 2};  // unique minimum, at the end of the array
  SupportCost copy = sc;
  EXPECT_EQ(BoundAt(copy, 1.0), 4u);
}

TEST(RangeBoundSelectionTest, IntegerNeedMatchesDoubleTarget) {
  // RangeCostNeed is the one double → integer conversion: the ceiling,
  // clamped to ≥ 1, so an integer cumulative cost crosses the double
  // target exactly when it reaches the need.
  const SupportCost base = {{4, 3}, {1, 2}, {9, 6}, {4, 1}};
  for (const double target : {0.2, 1.0, 2.0, 2.1, 5.0, 5.9, 6.0, 11.5}) {
    const Count need =
        target <= 1.0 ? 1 : static_cast<Count>(std::ceil(target));
    EXPECT_EQ(engine::RangeCostNeed(target), need) << "target " << target;
    SupportCost a = base;
    EXPECT_EQ(BoundAt(a, target), ReferenceBound(base, target))
        << "target " << target;
  }
}

TEST(RangeBoundSelectionTest, EmptyAndDegenerate) {
  SupportCost empty;
  EXPECT_EQ(BoundAt(empty, 10.0), kInvalidCount);
  EXPECT_EQ(engine::FindRangeBoundNeed(empty, 1), kInvalidCount);
  SupportCost one = {{17, 4}};
  EXPECT_EQ(BoundAt(one, 4.0), 18u);
  one = {{17, 4}};
  EXPECT_EQ(BoundAt(one, 5.0), 18u);  // short mass → max+1
}

}  // namespace
}  // namespace receipt
