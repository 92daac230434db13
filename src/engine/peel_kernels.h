#ifndef RECEIPT_ENGINE_PEEL_KERNELS_H_
#define RECEIPT_ENGINE_PEEL_KERNELS_H_

#include <algorithm>
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

/// The shared branchless wedge-gathering loop of every tip kernel (Alg. 1
/// lines 8-9, Alg. 2 lines 6-9): for each id in `ids` that `alive` admits,
/// bumps its multiplicity in `mult` and, on its first touch, appends it to
/// `touched[len]`. Every candidate is written at touched[len] and the
/// length advances by (mult == 0) & alive, so the loop carries no
/// data-dependent branch and keeps first-touch order. `touched` must hold
/// one slot more than the number of distinct ids it can receive. Returns
/// the new length.
template <typename Alive>
inline size_t GatherWedges(std::span<const VertexId> ids, Alive&& alive,
                           uint32_t* mult, VertexId* touched, size_t len) {
  for (const VertexId id : ids) {
    const uint32_t live = alive(id) ? 1u : 0u;
    const uint32_t m = mult[id];
    touched[len] = id;
    len += (m == 0) & live;
    mult[id] = m + live;
  }
  return len;
}

/// The wedge traversal of Alg. 2 (lines 6-10) for peeling `u`, which must
/// already be dead in `graph` so it never counts itself: gathers the live
/// 2-hop neighbors u2 with their multiplicities, then calls
/// `owe(u2, ⊲⊳_{u,u2})` in first-touch order for every u2 with a non-zero
/// shared-butterfly count C(common_live_neighbors, 2), leaving
/// ws.wedge_count all-zero. Returns the number of wedges traversed.
template <typename Owe>
uint64_t ForEachPeelDelta(const DynamicGraph& graph, VertexId u,
                          PeelWorkspace& ws, Owe&& owe) {
  uint64_t wedges = 0;
  size_t len = 0;
  const auto alive = [&graph](VertexId w) { return graph.IsAlive(w); };
  for (const VertexId v : graph.Neighbors(u)) {
    if (!graph.IsAlive(v)) continue;
    const auto nbrs = graph.Neighbors(v);
    wedges += nbrs.size();
    len = GatherWedges(nbrs, alive, ws.wedge_count.data(), ws.touched.data(),
                       len);
  }
  for (size_t i = 0; i < len; ++i) {
    const VertexId u2 = ws.touched[i];
    const Count delta = Choose2(ws.wedge_count[u2]);
    ws.wedge_count[u2] = 0;
    if (delta != 0) owe(u2, delta);
  }
  return wedges;
}

/// The sequential tip support-update kernel of Alg. 2 (lines 6-13), behind
/// BUP and every RECEIPT FD task: peels `u` (already dead in `graph`) and
/// decrements each live 2-hop neighbor's support by the butterflies it
/// shares with u, clamped from below at `floor` (the tip number of u —
/// Lemma 2). `on_updated(u2, new_support)` fires once per updated vertex,
/// in first-touch order (heap pushes / bucket moves).
///
/// Returns the number of wedges traversed.
template <typename OnUpdated>
uint64_t PeelVertex(const DynamicGraph& graph, VertexId u, Count floor,
                    std::span<Count> support, PeelWorkspace& ws,
                    OnUpdated&& on_updated) {
  return ForEachPeelDelta(graph, u, ws, [&](VertexId u2, Count delta) {
    const Count cur = support[u2];
    const Count new_support = (cur > floor + delta) ? cur - delta : floor;
    support[u2] = new_support;
    on_updated(u2, new_support);
  });
}

/// The concurrent tip round (ParB rounds and RECEIPT CD rounds, Alg. 3
/// lines 11-13): peels `peel_set` — whose members the caller already killed
/// — across `num_threads` threads, each survivor's support dropping by the
/// butterflies it shares with the whole set, clamped from below at `floor`.
///
/// ParButterfly-style aggregation: each thread sums the Choose2 deltas its
/// peeled vertices owe into its workspace's dense support_debt, and after
/// its share of the round applies one clamped atomic per distinct survivor.
/// Clamping at one floor composes — max(f, max(f, s−a) − b) = max(f, s−a−b)
/// — so the final supports equal per-update application in any order.
/// Supports only fall, so the thread that applies last sees the final
/// value: if it lies below a caller's threshold, some applier saw it there.
///
/// `on_updated(ws, u2, new_support)` fires once per (thread, survivor the
/// thread owed), on that thread with its workspace, after that thread's
/// debt on u2 landed — typical use buffers u2 into ws for post-barrier
/// re-bucketing or frontier merging. Returns wedges traversed.
template <typename OnUpdated>
uint64_t ParallelPeelRound(const DynamicGraph& live,
                           std::span<const VertexId> peel_set, Count floor,
                           std::span<Count> support, WorkspacePool& pool,
                           int num_threads, OnUpdated&& on_updated) {
  pool.Prepare(std::max(1, num_threads), live.num_vertices());
  const uint64_t wedges_before = pool.TotalWedges();
  ParallelForWithContext(
      peel_set.size(), num_threads, pool.workspaces(),
      [&](PeelWorkspace& ws, size_t i) {
        ws.wedges_traversed += ForEachPeelDelta(
            live, peel_set[i], ws, [&ws](VertexId u2, Count delta) {
              if (ws.support_debt[u2] == 0) ws.debt_ids.push_back(u2);
              ws.support_debt[u2] += delta;
            });
      },
      [&](PeelWorkspace& ws) {
        for (const VertexId u2 : ws.debt_ids) {
          const Count debt = ws.support_debt[u2];
          ws.support_debt[u2] = 0;
          on_updated(ws, u2, AtomicClampedSub(&support[u2], debt, floor));
        }
        ws.debt_ids.clear();
      });
  return pool.TotalWedges() - wedges_before;
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
