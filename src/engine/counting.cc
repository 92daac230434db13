#include "engine/counting.h"

#include <algorithm>
#include <span>

#include "engine/peel_kernels.h"
#include "util/parallel.h"

namespace receipt::engine {
namespace {

/// Length of the rank-bounded prefix of `nbrs` (Alg. 1 line 10): neighbors
/// are sorted by ascending rank, so the first endpoint whose rank reaches
/// `bound` ends the wedge group.
size_t RankPrefix(const DynamicGraph& graph, std::span<const VertexId> nbrs,
                  VertexId bound) {
  size_t k = 0;
  while (k < nbrs.size() && graph.Rank(nbrs[k]) < bound) ++k;
  return k;
}

/// Body of Alg. 1 for one start point `sp`: the vertex-priority algorithm
/// of Chiba–Nishizeki with the cache-efficient degree-descending relabeling
/// of Wang et al. and the batch-aggregation parallelization of ParButterfly.
void CountFromStartPoint(const DynamicGraph& graph, PeelWorkspace& ws,
                         VertexId sp, std::span<Count> support) {
  if (!graph.IsAlive(sp)) return;
  const VertexId sp_rank = graph.Rank(sp);
  uint32_t* mult = ws.wedge_count.data();
  const auto alive = [&graph](VertexId w) { return graph.IsAlive(w); };

  // Uncompacted dead endpoints count as traversed wedges but are never
  // gathered.
  uint64_t wedges = 0;
  size_t len = 0;
  for (const VertexId mp : graph.Neighbors(sp)) {
    if (!graph.IsAlive(mp)) continue;
    const auto nbrs = graph.Neighbors(mp);
    const size_t k =
        RankPrefix(graph, nbrs, std::min(graph.Rank(mp), sp_rank));
    wedges += k;
    len = GatherWedges(nbrs.first(k), alive, mult, ws.touched.data(), len);
  }
  ws.wedges_traversed += wedges;

  // Same-side contribution: every pair of wedges with endpoints (sp, ep)
  // closes one butterfly; it belongs to both endpoints.
  Count sp_total = 0;
  for (size_t i = 0; i < len; ++i) {
    const VertexId ep = ws.touched[i];
    const Count bcnt = Choose2(mult[ep]);
    if (bcnt > 0) {
      AtomicAdd(&support[ep], bcnt);
      sp_total += bcnt;
    }
  }
  if (sp_total > 0) AtomicAdd(&support[sp], sp_total);

  // Opposite-side contribution: a wedge (sp, mp, ep) participates in
  // (wedge_count[ep] - 1) butterflies, all incident on its mid point.
  // Re-walking each mid point's rank-bounded prefix sums them, so a mid
  // point takes one atomic per (sp, mp) pair rather than one per wedge. A
  // dead endpoint has multiplicity 0 and a live one at least 1, so
  // m - (m != 0) needs no liveness test.
  for (const VertexId mp : graph.Neighbors(sp)) {
    if (!graph.IsAlive(mp)) continue;
    const auto nbrs = graph.Neighbors(mp);
    const size_t k =
        RankPrefix(graph, nbrs, std::min(graph.Rank(mp), sp_rank));
    Count mp_total = 0;
    for (const VertexId ep : nbrs.first(k)) {
      const uint32_t m = mult[ep];
      mp_total += m - (m != 0);
    }
    if (mp_total > 0) AtomicAdd(&support[mp], mp_total);
  }

  // Restore the workspace's clean-state invariant (dense array zeroed).
  for (size_t i = 0; i < len; ++i) mult[ws.touched[i]] = 0;
}

}  // namespace

uint64_t CountVertexButterflies(const DynamicGraph& graph, WorkspacePool& pool,
                                int num_threads, std::span<Count> support) {
  const VertexId n = graph.num_vertices();
  pool.Prepare(std::max(1, num_threads), n);
  ParallelFor(n, num_threads, [&support](size_t w) { support[w] = 0; });
  const uint64_t wedges_before = pool.TotalWedges();
  ParallelForWithContext(
      n, num_threads, pool.workspaces(), [&](PeelWorkspace& ws, size_t sp) {
        CountFromStartPoint(graph, ws, static_cast<VertexId>(sp), support);
      });
  return pool.TotalWedges() - wedges_before;
}

uint64_t CountVertexButterfliesSeq(const DynamicGraph& graph,
                                   PeelWorkspace& ws,
                                   std::span<Count> support) {
  const VertexId n = graph.num_vertices();
  ws.EnsureVertexCapacity(n);
  const uint64_t wedges_before = ws.wedges_traversed;
  for (VertexId w = 0; w < n; ++w) support[w] = 0;
  for (VertexId sp = 0; sp < n; ++sp) {
    CountFromStartPoint(graph, ws, sp, support);
  }
  return ws.wedges_traversed - wedges_before;
}

uint64_t CountEdgeButterflies(const BipartiteGraph& graph, WorkspacePool& pool,
                              int num_threads, std::span<Count> support) {
  pool.Prepare(std::max(1, num_threads), graph.num_u());
  const uint64_t wedges_before = pool.TotalWedges();
  ParallelForWithContext(
      graph.num_u(), num_threads, pool.workspaces(),
      [&](PeelWorkspace& ws, size_t ui) {
        const VertexId u = static_cast<VertexId>(ui);
        uint32_t* mult = ws.wedge_count.data();
        const auto not_u = [u](VertexId u2) { return u2 != u; };
        uint64_t wedges = 0;
        size_t len = 0;
        for (const VertexId gv : graph.Neighbors(u)) {
          const auto nbrs = graph.Neighbors(gv);
          wedges += nbrs.size();
          len = GatherWedges(nbrs, not_u, mult, ws.touched.data(), len);
        }
        // bcnt(u, v) = Σ_{u2 ∈ N(v)\{u}} (common(u, u2) − 1); u itself has
        // multiplicity 0, so m - (m != 0) covers it without a test.
        const EdgeOffset base = graph.NeighborOffset(u);
        const auto u_nbrs = graph.Neighbors(u);
        for (size_t j = 0; j < u_nbrs.size(); ++j) {
          const auto nbrs = graph.Neighbors(u_nbrs[j]);
          wedges += nbrs.size();
          Count bcnt = 0;
          for (const VertexId u2 : nbrs) {
            const uint32_t m = mult[u2];
            bcnt += m - (m != 0);
          }
          support[base + j] = bcnt;
        }
        ws.wedges_traversed += wedges;
        for (size_t i = 0; i < len; ++i) mult[ws.touched[i]] = 0;
      });
  return pool.TotalWedges() - wedges_before;
}

}  // namespace receipt::engine
