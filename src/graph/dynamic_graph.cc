#include "graph/dynamic_graph.h"

#include <algorithm>

#include "util/parallel.h"

namespace receipt {

void DynamicGraph::Reset(const BipartiteGraph& graph,
                         std::span<const VertexId> rank, int num_threads) {
  num_u_ = graph.num_u();
  num_v_ = graph.num_v();
  killed_u_ = false;
  killed_v_ = false;
  offsets_.assign(graph.offsets().begin(), graph.offsets().end());
  adjacency_.assign(graph.adjacency().begin(), graph.adjacency().end());
  const VertexId n = num_vertices();
  degree_.resize(n);
  alive_.assign(n, 1);
  rank_.assign(rank.begin(), rank.end());
  ParallelFor(n, num_threads, [this](size_t w) {
    degree_[w] = offsets_[w + 1] - offsets_[w];
    // Re-sort this vertex's neighbors by ascending priority rank; the
    // counting kernel's break rule (Alg. 1 line 10) requires it. Ranks are
    // a permutation, so the order is unique whatever the thread count.
    auto begin = adjacency_.begin() + static_cast<int64_t>(offsets_[w]);
    auto end = adjacency_.begin() + static_cast<int64_t>(offsets_[w + 1]);
    std::sort(begin, end, [this](VertexId a, VertexId b) {
      return rank_[a] < rank_[b];
    });
  });
}

void DynamicGraph::Compact(int num_threads) {
  const VertexId n = num_vertices();
  // U lists hold V ids and vice versa: a side's lists can only hold dead
  // entries if the opposite side lost vertices since the last Compact().
  const bool rewrite_u = killed_v_;
  const bool rewrite_v = killed_u_;
  ParallelFor(n, num_threads, [&](size_t w) {
    if (!alive_[w]) {
      degree_[w] = 0;
      return;
    }
    if (!(IsU(static_cast<VertexId>(w)) ? rewrite_u : rewrite_v)) return;
    VertexId* begin = adjacency_.data() + offsets_[w];
    uint64_t kept = 0;
    const uint64_t deg = degree_[w];
    for (uint64_t i = 0; i < deg; ++i) {
      const VertexId x = begin[i];
      if (alive_[x]) begin[kept++] = x;  // stable: preserves rank order
    }
    degree_[w] = kept;
  });
  killed_u_ = false;
  killed_v_ = false;
}

uint64_t DynamicGraph::LiveEdgeSlots() const {
  uint64_t total = 0;
  const VertexId n = num_vertices();
  for (VertexId w = 0; w < n; ++w) {
    if (alive_[w]) total += degree_[w];
  }
  return total;
}

Count DynamicGraph::RecountCostBound(int num_threads) const {
  return ParallelReduceSum<Count>(num_u_, num_threads, [this](size_t ui) {
    const VertexId u = static_cast<VertexId>(ui);
    Count total = 0;
    if (!alive_[u]) return total;
    const uint64_t du = degree_[u];
    for (VertexId v : Neighbors(u)) {
      if (alive_[v]) total += std::min<Count>(du, degree_[v]);
    }
    return total;
  });
}

Count DynamicGraph::LiveWedgeCount(VertexId w) const {
  Count total = 0;
  for (VertexId x : Neighbors(w)) {
    if (alive_[x] && degree_[x] > 0) total += degree_[x] - 1;
  }
  return total;
}

VertexId DynamicGraph::NumAlive(Side side) const {
  const VertexId begin = side == Side::kU ? 0 : num_u_;
  const VertexId end = side == Side::kU ? num_u_ : num_vertices();
  VertexId count = 0;
  for (VertexId w = begin; w < end; ++w) count += alive_[w];
  return count;
}

}  // namespace receipt
