// Naive reference for the coarse-grained decomposition (RECEIPT CD, Alg. 3,
// and the RECEIPT-W coarse step): a direct restatement of the paper's range
// peeling that shares no code with the engine. Supports are re-derived by
// brute-force butterfly counting among the survivors after every round,
// bounds by sorting the alive (support, static cost) pairs, and ⊲⊳init by a
// full snapshot at every range start. Only meant for small graphs: each
// round costs O(|U|^2) (tip) or O(#butterflies) (wing).
//
// The coarse suites compare every RangeResult field the engine produces —
// bounds, subsets (in peel order), subset_of, init_support and
// predicted_costs (ExpectRanges) — plus its sync-round count against this
// oracle.

#ifndef RECEIPT_TESTS_COARSE_ORACLE_H_
#define RECEIPT_TESTS_COARSE_ORACLE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/range_result.h"
#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt::oracle {

template <typename Id>
struct OracleRanges {
  std::vector<Count> bounds;
  std::vector<std::vector<Id>> subsets;
  std::vector<uint32_t> subset_of;
  std::vector<Count> init_support;
  std::vector<Count> predicted_costs;
  /// Peel rounds (non-empty active sets) across all ranges.
  uint64_t rounds = 0;
};

/// Vertex (tip) model: U vertices, static cost = wedges with endpoint u.
class TipModel {
 public:
  using Id = VertexId;

  explicit TipModel(const BipartiteGraph& g) : n_(g.num_u()) {
    // pair_butterflies_[a * n + b] = C(|N(a) ∩ N(b)|, 2): the butterflies
    // a and b share. V vertices never die in tip peeling, so this is fixed.
    std::vector<Count> common(static_cast<size_t>(n_) * n_, 0);
    for (VertexId v = g.num_u(); v < g.num_vertices(); ++v) {
      const auto nbrs = g.Neighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = 0; j < nbrs.size(); ++j) {
          if (i != j) ++common[static_cast<size_t>(nbrs[i]) * n_ + nbrs[j]];
        }
      }
    }
    pair_butterflies_.resize(common.size());
    for (size_t k = 0; k < common.size(); ++k) {
      pair_butterflies_[k] =
          common[k] < 2 ? 0 : common[k] * (common[k] - 1) / 2;
    }
    cost_.assign(n_, 0);
    for (VertexId u = 0; u < n_; ++u) {
      for (const VertexId v : g.Neighbors(u)) cost_[u] += g.Degree(v) - 1;
    }
  }

  uint64_t num_entities() const { return n_; }
  Count cost(uint64_t e) const { return cost_[e]; }

  /// Butterflies of every alive u among the alive U vertices.
  std::vector<Count> Butterflies(const std::vector<bool>& alive) const {
    std::vector<Count> out(n_, 0);
    for (VertexId a = 0; a < n_; ++a) {
      if (!alive[a]) continue;
      for (VertexId b = 0; b < n_; ++b) {
        if (b != a && alive[b]) {
          out[a] += pair_butterflies_[static_cast<size_t>(a) * n_ + b];
        }
      }
    }
    return out;
  }

 private:
  VertexId n_;
  std::vector<Count> pair_butterflies_;
  std::vector<Count> cost_;
};

/// Edge (wing) model: U-side CSR slots, static cost = deg(u) + deg(v) +
/// wedges with endpoint v (marking N(u), scanning the neighborhoods of N(v)).
class WingModel {
 public:
  using Id = EdgeOffset;

  explicit WingModel(const BipartiteGraph& g) : m_(g.num_edges()) {
    const auto slot = [&](VertexId u, VertexId v) {
      const auto nbrs = g.Neighbors(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] == v) {
          return static_cast<EdgeOffset>(g.NeighborOffset(u) + i);
        }
      }
      return EdgeOffset{~EdgeOffset{0}};
    };
    cost_.assign(m_, 0);
    for (VertexId u = 0; u < g.num_u(); ++u) {
      for (const VertexId v : g.Neighbors(u)) {
        Count wedges_v = 0;
        for (const VertexId x : g.Neighbors(v)) wedges_v += g.Degree(x) - 1;
        cost_[slot(u, v)] = g.Degree(u) + wedges_v + g.Degree(v);
      }
    }
    // Every butterfly (u1 < u2, v1 < v2) as its four edge slots.
    for (VertexId u1 = 0; u1 < g.num_u(); ++u1) {
      for (VertexId u2 = u1 + 1; u2 < g.num_u(); ++u2) {
        std::vector<VertexId> shared;
        for (const VertexId v : g.Neighbors(u1)) {
          if (slot(u2, v) != ~EdgeOffset{0}) shared.push_back(v);
        }
        for (size_t i = 0; i < shared.size(); ++i) {
          for (size_t j = i + 1; j < shared.size(); ++j) {
            butterflies_.push_back({slot(u1, shared[i]), slot(u1, shared[j]),
                                    slot(u2, shared[i]), slot(u2, shared[j])});
          }
        }
      }
    }
  }

  uint64_t num_entities() const { return m_; }
  Count cost(uint64_t e) const { return cost_[e]; }

  /// Butterflies of every alive edge whose four edges are all alive.
  std::vector<Count> Butterflies(const std::vector<bool>& alive) const {
    std::vector<Count> out(m_, 0);
    for (const auto& b : butterflies_) {
      if (alive[b[0]] && alive[b[1]] && alive[b[2]] && alive[b[3]]) {
        for (const EdgeOffset e : b) ++out[e];
      }
    }
    return out;
  }

 private:
  uint64_t m_;
  std::vector<Count> cost_;
  std::vector<std::array<EdgeOffset, 4>> butterflies_;
};

/// Alg. 3 with P = `partitions`, restated naively.
template <typename Model>
OracleRanges<typename Model::Id> CoarseRanges(const Model& model,
                                              int partitions) {
  using Id = typename Model::Id;
  const uint64_t n = model.num_entities();
  const uint32_t p = static_cast<uint32_t>(std::max(1, partitions));
  OracleRanges<Id> out;
  out.subset_of.assign(n, 0);
  out.init_support.assign(n, 0);
  out.bounds = {0};

  std::vector<bool> alive(n, true);
  std::vector<Count> support = model.Butterflies(alive);
  uint64_t alive_count = n;

  Count total = 0;
  for (uint64_t e = 0; e < n; ++e) total += model.cost(e);
  // Alg. 3 line 4, in the engine's double arithmetic; the integer twin
  // carries the final unbounded subset's prediction.
  double remaining_cost = static_cast<double>(total);
  double target = remaining_cost / p;
  Count remaining_static = total;

  while (alive_count > 0) {
    const uint32_t index = static_cast<uint32_t>(out.subsets.size());
    const Count lo = out.bounds.back();
    for (uint64_t e = 0; e < n; ++e) {
      if (alive[e]) out.init_support[e] = support[e];
    }

    // findHi: the first support whose sorted cumulative cost reaches
    // ceil(target); max support + 1 when the alive mass falls short. Once
    // P bounded subsets exist, the last one is unbounded (§3.1.1).
    Count hi = kInvalidCount;
    Count predicted = remaining_static;
    if (index < p) {
      std::vector<std::pair<Count, Count>> pairs;
      for (uint64_t e = 0; e < n; ++e) {
        if (alive[e]) pairs.emplace_back(support[e], model.cost(e));
      }
      std::sort(pairs.begin(), pairs.end());
      const Count need =
          static_cast<Count>(std::ceil(std::max(1.0, target)));
      Count acc = 0;
      hi = pairs.back().first + 1;
      for (const auto& [s, c] : pairs) {
        acc += c;
        if (acc >= need) {
          hi = s + 1;
          break;
        }
      }
      predicted = 0;
      for (const auto& [s, c] : pairs) {
        if (s < hi) predicted += c;
      }
    }

    // Peel rounds: everything alive below hi, ascending id order, then a
    // fresh count among the survivors clamped at the range floor.
    std::vector<Id> subset;
    while (true) {
      std::vector<Id> active;
      for (uint64_t e = 0; e < n; ++e) {
        if (alive[e] && support[e] < hi) active.push_back(static_cast<Id>(e));
      }
      if (active.empty()) break;
      ++out.rounds;
      for (const Id e : active) {
        alive[e] = false;
        out.subset_of[e] = index;
      }
      alive_count -= active.size();
      subset.insert(subset.end(), active.begin(), active.end());
      const std::vector<Count> fresh = model.Butterflies(alive);
      for (uint64_t e = 0; e < n; ++e) {
        if (alive[e]) support[e] = std::max(lo, fresh[e]);
      }
    }

    // Two-way adaptive target (§3.1.1).
    Count subset_static = 0;
    for (const Id e : subset) subset_static += model.cost(e);
    const double subset_cost = static_cast<double>(subset_static);
    remaining_cost -= subset_cost;
    remaining_static -= std::min(remaining_static, subset_static);
    if (index + 1 < p) {
      const double base =
          remaining_cost / static_cast<double>(p - index - 1);
      const double scale =
          subset_cost > 0.0 ? std::min(1.0, target / subset_cost) : 1.0;
      target = std::max(1.0, base * scale);
    }
    out.subsets.push_back(std::move(subset));
    out.predicted_costs.push_back(predicted);
    out.bounds.push_back(hi);
  }
  return out;
}

/// Expects the engine's RangeResult to equal the oracle's on every field.
template <typename Id>
void ExpectRanges(const OracleRanges<Id>& expected,
                  const engine::RangeResult<Id>& actual) {
  EXPECT_EQ(actual.bounds, expected.bounds);
  EXPECT_EQ(actual.subsets, expected.subsets);
  EXPECT_EQ(actual.subset_of, expected.subset_of);
  EXPECT_EQ(actual.init_support, expected.init_support);
  // The cost-model input rides along: the histogram's prefix prediction
  // must equal the naive cost mass below each bound.
  EXPECT_EQ(actual.predicted_costs, expected.predicted_costs);
}

}  // namespace receipt::oracle

#endif  // RECEIPT_TESTS_COARSE_ORACLE_H_
