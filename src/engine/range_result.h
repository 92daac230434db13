#ifndef RECEIPT_ENGINE_RANGE_RESULT_H_
#define RECEIPT_ENGINE_RANGE_RESULT_H_

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace receipt::engine {

/// Output of a coarse-grained range decomposition (RECEIPT CD over vertices
/// or edges). Id is VertexId for tip decomposition, EdgeOffset for wing.
template <typename Id>
struct RangeResult {
  /// θ(1)=0, θ(2), …, θ(P'+1): subset i (0-based) covers peel numbers in
  /// [bounds[i], bounds[i+1]). The final bound is kInvalidCount if the last
  /// subset absorbed every leftover entity (its range is unbounded).
  std::vector<Count> bounds;

  /// The subsets in peeling order (entity ids as peeled).
  std::vector<std::vector<Id>> subsets;

  /// subset_of[e] = subset index of entity e.
  std::vector<uint32_t> subset_of;

  /// ⊲⊳init: the support of e after all lower subsets were fully peeled and
  /// before its own subset's peeling began — the FD initialization vector.
  /// Produced by one up-front write plus boundary patches at changed
  /// entities (SupportIndex deltas); the coarse oracle suites check it
  /// field by field against a per-range snapshot.
  std::vector<Count> init_support;

  /// predicted_costs[i] = the cost-model prediction for subset i: the
  /// static-cost mass of the entities alive with support inside range i at
  /// the moment its bound was fixed (all remaining mass for the final
  /// unbounded subset). Read off the histogram's bucket cost sums — an
  /// integer, bit-identical across thread counts. The FD placement layer's
  /// LPT assigner consumes it in place of the legacy O(m) induced
  /// wedge-count pass.
  std::vector<Count> predicted_costs;
};

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_RANGE_RESULT_H_
