#ifndef RECEIPT_TIP_RECEIPT_FD_H_
#define RECEIPT_TIP_RECEIPT_FD_H_

#include <span>
#include <vector>

#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "tip/receipt_cd.h"
#include "tip/tip_common.h"
#include "util/stats.h"

namespace receipt {

/// Number of wedges with both endpoints in each subset — Σ_v C(c_{v,i}, 2)
/// where c_{v,i} = |N(v) ∩ U_i|. This is the induced-subgraph workload proxy
/// used to order the FD task queue (Longest-Processing-Time rule, §3.2.1).
std::vector<Count> ComputeSubsetWedgeCounts(const BipartiteGraph& graph,
                                            std::span<const uint32_t> subset_of,
                                            uint32_t num_subsets,
                                            int num_threads);

/// RECEIPT FD (Alg. 4): computes exact tip numbers by peeling each CD subset
/// independently. Subsets are placed onto nodes up front by the cost-model
/// plan (LPT over cd.predicted_costs, or round-robin — see
/// TipOptions::fd_assignment / placement_nodes / pin_numa); worker threads
/// then pop from their own node's queue first and steal from other nodes'
/// queues only when theirs runs dry, so hot task state stays node-local.
/// Each popped subset is peeled whole: build the induced subgraph,
/// initialize supports from ⊲⊳init, run the engine's sequential bottom-up
/// peeler with a k-way min-heap. No thread synchronization occurs until the
/// final join, so FD adds 0 to sync_rounds. Placement, pinning and steal
/// order never change results — subsets are independent — only the
/// placement counters.
///
/// Falls back to the legacy induced wedge-count pass
/// (ComputeSubsetWedgeCounts) when `cd` carries no predicted costs.
///
/// Honours options.use_huc (re-count within the induced subgraph plus the
/// fixed external contribution ⊲⊳init − ⊲⊳in_G_i, §4.1) and options.use_dgm.
///
/// Writes θ_u into tip_numbers[u] (side-local ids of `graph`, which must be
/// oriented with the peeled side as U — same orientation given to ReceiptCd).
void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, std::span<Count> tip_numbers,
               PeelStats* stats);

/// Pool-sharing overload: each worker thread peels its subsets with its own
/// workspace from `pool`, so successive partitions reuse the same scratch.
void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, engine::WorkspacePool& pool,
               std::span<Count> tip_numbers, PeelStats* stats);

/// Selective overload for the incremental serving path: peels only the
/// subsets with `only_subsets[sid] != 0` (an empty span means all), leaving
/// every other entry of `tip_numbers` untouched — the caller reuses the
/// sealed numbers for clean subsets. Subset independence makes the peeled
/// subsets' numbers bit-identical to a full FD pass.
void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, engine::WorkspacePool& pool,
               std::span<Count> tip_numbers, PeelStats* stats,
               std::span<const uint8_t> only_subsets);

}  // namespace receipt

#endif  // RECEIPT_TIP_RECEIPT_FD_H_
