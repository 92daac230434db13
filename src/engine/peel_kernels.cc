#include "engine/peel_kernels.h"

#include <algorithm>
#include <cmath>

namespace receipt::engine {

Count FindRangeBoundNeed(std::vector<std::pair<Count, Count>>& support_and_cost,
                         Count need) {
  // Guard: no alive entities means any range works — absorb everything.
  // (Callers only reach here while entities remain, but a wrong caller must
  // not dereference .back() of an empty vector.)
  if (support_and_cost.empty()) return kInvalidCount;

  // Quickselect-style descent: 3-way partition by a median-of-3 support
  // pivot, then recurse into the partition the cumulative cost crosses in.
  // When the target lands early only the low partitions are ever examined;
  // the high ones are discarded unsorted. Small residues fall back to a
  // full sort of just that residue.
  constexpr size_t kSortCutoff = 32;
  size_t first = 0;
  size_t last = support_and_cost.size();
  Count acc = 0;           // cost mass strictly below [first, last)
  Count consumed_max = 0;  // max support among discarded low partitions
  bool consumed_any = false;
  while (last - first > kSortCutoff) {
    const Count a = support_and_cost[first].first;
    const Count b = support_and_cost[first + (last - first) / 2].first;
    const Count c = support_and_cost[last - 1].first;
    const Count pivot =
        std::max(std::min(a, b), std::min(std::max(a, b), c));

    // Dutch-national-flag partition: [< pivot | == pivot | > pivot).
    size_t lt = first;
    size_t i = first;
    size_t gt = last;
    Count sum_lt = 0;
    Count sum_eq = 0;
    while (i < gt) {
      const Count s = support_and_cost[i].first;
      if (s < pivot) {
        sum_lt += support_and_cost[i].second;
        std::swap(support_and_cost[lt++], support_and_cost[i++]);
      } else if (s > pivot) {
        std::swap(support_and_cost[i], support_and_cost[--gt]);
      } else {
        sum_eq += support_and_cost[i].second;
        ++i;
      }
    }

    if (acc + sum_lt >= need) {
      last = lt;  // crossing lies strictly below the pivot
    } else if (acc + sum_lt + sum_eq >= need) {
      return pivot + 1;  // the pivot's own cost class crosses
    } else {
      // Everything ≤ pivot is consumed; the crossing (or the global max,
      // when the total mass is short) lies above.
      acc += sum_lt + sum_eq;
      consumed_max = pivot;
      consumed_any = true;
      first = gt;
    }
  }

  std::sort(support_and_cost.begin() + static_cast<ptrdiff_t>(first),
            support_and_cost.begin() + static_cast<ptrdiff_t>(last));
  for (size_t i = first; i < last; ++i) {
    acc += support_and_cost[i].second;
    if (acc >= need) return support_and_cost[i].first + 1;
  }
  // Total mass below the target: the bound is the maximum support + 1. The
  // residue holds the global maximum unless it emptied out, in which case
  // the last consumed pivot class was the top.
  if (last > first) return support_and_cost[last - 1].first + 1;
  return consumed_any ? consumed_max + 1 : kInvalidCount;
}

Count RangeCostNeed(double target) {
  double need = std::ceil(target);
  if (need < 1.0) need = 1.0;
  constexpr double kMaxNeed = 1.8e19;  // < 2^64, avoids UB on the cast
  return need >= kMaxNeed ? static_cast<Count>(-2)
                          : static_cast<Count>(need);
}

}  // namespace receipt::engine
