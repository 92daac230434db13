#ifndef RECEIPT_GRAPH_DYNAMIC_GRAPH_H_
#define RECEIPT_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt {

/// A peelable view of a BipartiteGraph: vertices can be killed (peeled) and
/// adjacency lists periodically *compacted* to drop edges incident to dead
/// vertices — the paper's Dynamic Graph Maintenance optimization (§4.2).
///
/// Adjacency lists are re-sorted by a caller-supplied priority rank at
/// construction (ascending rank = descending degree in the original graph),
/// which is the order the vertex-priority butterfly-counting kernel (Alg. 1)
/// needs for its break rule. Compaction preserves this order, so HUC
/// re-counts (§4.1) run directly on the compacted structure.
///
/// Between compactions, Degree()/Neighbors() may still include dead
/// vertices; traversals must skip them via IsAlive(). After Compact() the
/// lists of *live* vertices contain only live neighbors. The view records
/// which sides lost vertices since the last Compact(): only the lists of
/// the opposite side can hold dead entries, so Compact() rewrites those
/// alone (tip peeling kills U vertices only, so the U lists — half the
/// slots — are never rescanned).
class DynamicGraph {
 public:
  /// An empty graph; fill in with Reset(). Exists so DynamicGraphs can live
  /// inside reusable arenas (one per FD workspace).
  DynamicGraph() = default;

  /// `rank` must be a permutation of [0, num_vertices) (see
  /// BipartiteGraph::DegreeDescendingRanks). Lower rank = higher priority.
  /// The adjacency lists are sorted with `num_threads` OpenMP threads; the
  /// result is identical for every thread count.
  DynamicGraph(const BipartiteGraph& graph, std::span<const VertexId> rank,
               int num_threads = 1) {
    Reset(graph, rank, num_threads);
  }

  /// Re-initializes this view over `graph` (everything alive, adjacency
  /// re-sorted by `rank`), reusing the internal arrays' capacity — the
  /// allocation-free path for arena-resident per-partition graphs.
  void Reset(const BipartiteGraph& graph, std::span<const VertexId> rank,
             int num_threads = 1);

  /// Capacity of the internal arrays in elements (arena-reuse telemetry).
  size_t CapacityFootprint() const {
    return offsets_.capacity() + adjacency_.capacity() + degree_.capacity() +
           alive_.capacity() + rank_.capacity();
  }

  VertexId num_u() const { return num_u_; }
  VertexId num_v() const { return num_v_; }
  VertexId num_vertices() const { return num_u_ + num_v_; }
  bool IsU(VertexId w) const { return w < num_u_; }

  bool IsAlive(VertexId w) const { return alive_[w] != 0; }
  /// Marks `w` dead. Does not touch adjacency (lazy; see Compact()).
  /// Not thread-safe: callers kill a round's vertices before its parallel
  /// peel starts.
  void Kill(VertexId w) {
    alive_[w] = 0;
    (IsU(w) ? killed_u_ : killed_v_) = true;
  }

  /// Current degree: number of entries in the (possibly uncompacted)
  /// adjacency list. An upper bound on the live degree.
  uint64_t Degree(VertexId w) const { return degree_[w]; }

  std::span<const VertexId> Neighbors(VertexId w) const {
    return {adjacency_.data() + offsets_[w],
            adjacency_.data() + offsets_[w] + degree_[w]};
  }

  /// Priority rank of a vertex (fixed at construction).
  VertexId Rank(VertexId w) const { return rank_[w]; }

  /// Removes dead entries from every live vertex's adjacency list and
  /// zeroes the degrees of dead vertices. Only the lists of the side
  /// opposite a side that lost vertices since the last Compact() are
  /// rewritten: O(num_vertices + those lists' slots) with `num_threads`
  /// OpenMP threads.
  void Compact(int num_threads);

  /// Σ of current degrees over live vertices (≈ 2·live edges once
  /// compacted; an upper bound otherwise). Used for the DGM trigger.
  uint64_t LiveEdgeSlots() const;

  /// Σ_{(u,v) live} min(d_u, d_v) with current degrees — the re-counting
  /// cost bound C_rcnt of §4.1. Exact after a Compact(), an overestimate
  /// between compactions (safe: HUC then triggers less often, never
  /// wrongly). A deterministic parallel sum over `num_threads` threads.
  Count RecountCostBound(int num_threads = 1) const;

  /// Σ_{x ∈ N(w), alive} (d_x − 1) with current degrees: the live wedge
  /// count of `w`, i.e. the cost of peeling it now.
  Count LiveWedgeCount(VertexId w) const;

  /// Number of live vertices on a side.
  VertexId NumAlive(Side side) const;

 private:
  VertexId num_u_ = 0;
  VertexId num_v_ = 0;
  std::vector<EdgeOffset> offsets_;    // fixed slot layout from the source
  std::vector<VertexId> adjacency_;    // mutable; compacted in place
  std::vector<uint64_t> degree_;       // live prefix length per vertex
  std::vector<uint8_t> alive_;
  std::vector<VertexId> rank_;
  bool killed_u_ = false;  // a U vertex died since the last Compact()
  bool killed_v_ = false;  // a V vertex died since the last Compact()
};

}  // namespace receipt

#endif  // RECEIPT_GRAPH_DYNAMIC_GRAPH_H_
