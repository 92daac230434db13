#ifndef RECEIPT_ENGINE_PEEL_KERNELS_H_
#define RECEIPT_ENGINE_PEEL_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "graph/dynamic_graph.h"
#include "util/parallel.h"
#include "util/types.h"
#include "wing/edge_topology.h"

namespace receipt::engine {

/// Edge life-cycle during wing (edge) peeling. kEdgePeeling marks the
/// current round's extraction set: still part of butterflies for
/// enumeration purposes, but already claimed — the §7 priority rule
/// arbitrates which peeling edge applies each butterfly's update.
enum EdgeState : uint8_t { kEdgeDead = 0, kEdgeAlive = 1, kEdgePeeling = 2 };

/// The tip support-update kernel of Alg. 2 (lines 6-13), shared by BUP,
/// ParB and both RECEIPT steps.
///
/// Peels `u` (which must already be marked dead in `graph`): traverses all
/// live wedges (u, v, u2), aggregates shared-butterfly counts
/// ⊲⊳_{u,u2} = C(common_live_neighbors, 2) in the workspace's dense array,
/// and decrements each live u2's support, clamped from below at `floor`
/// (the tip number of u, or the range lower bound θ(i) in RECEIPT CD —
/// Lemma 2).
///
/// kAtomic selects lock-free clamped decrements for concurrent peeling.
/// `on_updated(u2, new_support)` fires once per updated vertex (used to
/// track candidates for the next active set / heap pushes / re-bucketing).
///
/// Returns the number of wedges traversed.
template <bool kAtomic, typename OnUpdated>
uint64_t PeelVertex(const DynamicGraph& graph, VertexId u, Count floor,
                    std::span<Count> support, PeelWorkspace& ws,
                    OnUpdated&& on_updated) {
  uint64_t wedges = 0;
  for (const VertexId v : graph.Neighbors(u)) {
    if (!graph.IsAlive(v)) continue;
    for (const VertexId u2 : graph.Neighbors(v)) {
      ++wedges;
      if (!graph.IsAlive(u2)) continue;  // includes u itself (already dead)
      if (ws.wedge_count[u2]++ == 0) ws.touched.push_back(u2);
    }
  }
  for (const VertexId u2 : ws.touched) {
    const Count delta = Choose2(ws.wedge_count[u2]);
    ws.wedge_count[u2] = 0;
    if (delta == 0) continue;
    Count new_support;
    if constexpr (kAtomic) {
      new_support = AtomicClampedSub(&support[u2], delta, floor);
    } else {
      const Count cur = support[u2];
      new_support = (cur > floor + delta) ? cur - delta : floor;
      support[u2] = new_support;
    }
    on_updated(u2, new_support);
  }
  ws.touched.clear();
  return wedges;
}

/// The wing (edge) peel kernel: enumerates every butterfly of `e` whose
/// four edges are all not-dead and for which `e` is the applier (the
/// minimum-id kEdgePeeling edge in the butterfly), invoking `apply(x)` for
/// each of the butterfly's other edges x that are still kEdgeAlive.
/// Returns wedges traversed.
///
/// Uses the workspace's V-side mark array (zero before and after).
template <typename Apply>
uint64_t PeelEdgeButterflies(const BipartiteGraph& graph,
                             const EdgeTopology& topo,
                             const std::vector<uint8_t>& state, EdgeOffset e,
                             PeelWorkspace& ws, Apply&& apply) {
  uint64_t wedges = 0;
  std::vector<EdgeOffset>& mark = ws.edge_mark;
  const VertexId u = topo.source[e];
  const VertexId gv = graph.adjacency()[e];

  const EdgeOffset u_base = graph.NeighborOffset(u);
  const auto u_nbrs = graph.Neighbors(u);
  for (size_t j = 0; j < u_nbrs.size(); ++j) {
    const EdgeOffset h = u_base + j;
    if (state[h] != kEdgeDead) mark[u_nbrs[j] - graph.num_u()] = h + 1;
  }
  mark[gv - graph.num_u()] = 0;  // exclude e itself

  const EdgeOffset v_base = graph.NeighborOffset(gv);
  const auto v_nbrs = graph.Neighbors(gv);
  for (size_t s = 0; s < v_nbrs.size(); ++s) {
    const VertexId u2 = v_nbrs[s];
    const EdgeOffset f = topo.v_slot_edge[v_base + s - topo.v_region];
    if (f == e || state[f] == kEdgeDead) continue;
    const EdgeOffset u2_base = graph.NeighborOffset(u2);
    const auto u2_nbrs = graph.Neighbors(u2);
    for (size_t t = 0; t < u2_nbrs.size(); ++t) {
      ++wedges;
      const VertexId gv2 = u2_nbrs[t];
      if (gv2 == gv) continue;
      const EdgeOffset g2 = u2_base + t;
      if (state[g2] == kEdgeDead) continue;
      const EdgeOffset h_plus1 = mark[gv2 - graph.num_u()];
      if (h_plus1 == 0) continue;
      const EdgeOffset h = h_plus1 - 1;
      // Butterfly {e, f, g2, h}. Priority rule: the minimum-id peeling
      // edge applies the update; everyone else skips.
      if ((state[f] == kEdgePeeling && f < e) ||
          (state[g2] == kEdgePeeling && g2 < e) ||
          (state[h] == kEdgePeeling && h < e)) {
        continue;
      }
      if (state[f] == kEdgeAlive) apply(f);
      if (state[g2] == kEdgeAlive) apply(g2);
      if (state[h] == kEdgeAlive) apply(h);
    }
  }

  for (const VertexId nbr : u_nbrs) mark[nbr - graph.num_u()] = 0;
  return wedges;
}

/// findHi (Alg. 3 lines 16-21) for both vertex and edge ranges: the
/// smallest support value s such that the cumulative static peel-cost of
/// alive entities with support ≤ s reaches `need` (an exact Count — see
/// RangeCostNeed), returned as the exclusive bound s+1. Falls back to
/// max_support+1 when the total cost mass is below `need`, and to
/// kInvalidCount (an unbounded range absorbing everything) when no entities
/// remain — the empty-input guard.
///
/// Cumulates in exact integer arithmetic (the crossing only depends on the
/// cost multiset per support value, so the result is permutation- and
/// schedule-independent). Implemented by quickselect-style partial
/// selection rather than a full sort: when the target lands early in the
/// support order — the common case, since range targets are a 1/P'
/// fraction of the remaining mass — only the low partitions are ever
/// ordered. The SupportIndex in-bucket refine resolves its crossings with
/// it. Partitions `support_and_cost` in place.
Count FindRangeBoundNeed(std::vector<std::pair<Count, Count>>& support_and_cost,
                         Count need);

/// The double-target → integer-need conversion of the coarse step:
/// cumulative cost is an exact Count, so crossing the double target is
/// equivalent to reaching its ceiling (clamped to ≥ 1, and capped below
/// 2^64 for pathological inputs).
Count RangeCostNeed(double target);

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_PEEL_KERNELS_H_
