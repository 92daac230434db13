#ifndef RECEIPT_UTIL_STATS_H_
#define RECEIPT_UTIL_STATS_H_

#include <cstdint>
#include <string>

namespace receipt {

/// Instrumentation counters reported by every decomposition algorithm.
///
/// These are exactly the quantities the paper evaluates: wedges traversed (Ó,
/// Table 3 / Figs. 6 & 8), synchronization rounds (ρ, Table 3), and per-phase
/// wall-clock time (Figs. 7 & 9). Counting a "wedge traversed" means one
/// execution of the innermost loop body in Alg. 1 (counting) or Alg. 2
/// (peeling update).
struct PeelStats {
  // -- wedge traversal, by phase ------------------------------------------
  uint64_t wedges_counting = 0;   ///< pvBcnt wedges (initial support init).
  uint64_t wedges_cd = 0;         ///< wedges traversed while peeling in CD
                                  ///  (includes HUC re-count traversals).
  uint64_t wedges_fd = 0;         ///< wedges traversed in FD (induced graphs,
                                  ///  includes subgraph-local counting).
  uint64_t wedges_other = 0;      ///< wedges traversed by baselines (BUP/ParB
                                  ///  peeling phase).

  // -- synchronization ----------------------------------------------------
  /// Number of peeling rounds that end in a thread barrier. For ParB this is
  /// one per minimum-support iteration; for RECEIPT CD one per range-peeling
  /// iteration. RECEIPT FD contributes 0 (threads only join once at the end).
  uint64_t sync_rounds = 0;

  /// Total peeling iterations (same as sync_rounds for parallel algorithms;
  /// for sequential BUP it is the number of vertices peeled).
  uint64_t peel_iterations = 0;

  // -- optimization activity ----------------------------------------------
  uint64_t huc_recounts = 0;      ///< # iterations where HUC chose re-count.
  uint64_t dgm_compactions = 0;   ///< # dynamic-graph compaction passes.

  // -- frontier scheduling: what ran ---------------------------------------
  // Per-direction build counts and elements examined. These report the
  // work that actually executed; the EWMA gauges further down report what
  // each element cost. Keeping the two groups separate is what lets the
  // measured-cost switch be the default without muddying the "what ran"
  // counters the equivalence suites and bench gates assert on.
  /// Active-set builds served by merging the workspace frontier buffers
  /// (sparse direction: cost proportional to the frontier, not to n).
  uint64_t frontier_rounds = 0;
  /// Active-set builds that ran as full parallel scans (the dense
  /// direction).
  uint64_t scan_rounds = 0;
  /// Active-set builds collected from SupportIndex member lists instead of
  /// an O(n) scan — the first build of every range and every post-re-count
  /// rebuild.
  uint64_t index_build_rounds = 0;
  /// Entities examined by full-scan builds (n per scan round).
  uint64_t scan_build_elements = 0;
  /// Entities examined by frontier-merge builds (merged frontier sizes).
  uint64_t frontier_build_elements = 0;
  /// Entities examined by index-built builds (in-range histogram members,
  /// including the crossing bucket's filtered members).
  uint64_t index_active_elements = 0;
  /// Total entities examined across scan and frontier builds — the
  /// quantity the direction optimization minimizes (bench_frontier_micro
  /// reports it). Always scan_build_elements + frontier_build_elements.
  uint64_t active_scan_elements = 0;

  // -- output-sensitive coarse index (SupportIndex) ------------------------
  /// Histogram buckets (summary groups + leaf buckets) examined by the
  /// range-bound prefix walks that replace the per-range sort.
  uint64_t bound_walk_buckets = 0;
  /// Bucket members examined by in-bucket refines (resolving the exact
  /// crossing support inside the bucket the prefix walk stopped at).
  uint64_t histogram_refines = 0;
  /// Entities examined while patching ⊲⊳init at range boundaries: the
  /// changed-since-last-boundary list per patch, or n when a HUC re-count
  /// forced the full-snapshot fallback.
  uint64_t init_patch_elements = 0;
  /// Entities re-inserted by full SupportIndex rebuilds (the one up-front
  /// build plus one per HUC re-count, which invalidates delta tracking).
  uint64_t index_rebuild_elements = 0;

  // -- incremental coarse pass (live-update serving) ------------------------
  /// Entities touched while *replaying* clean ranges from the sealed
  /// baseline (subset members killed without wedge traversal + patch-log
  /// entries re-applied). This is the incremental path's whole cost for a
  /// reused range, so the bench gate counts it against the full run's
  /// wedge + build work.
  uint64_t incremental_replay_elements = 0;
  /// Ranges the incremental pass reused verbatim from the sealed result.
  uint64_t incremental_ranges_reused = 0;
  /// Ranges the incremental pass re-peeled (dirty bucket membership, or
  /// desynced after an earlier divergence).
  uint64_t incremental_ranges_repeeled = 0;

  // -- frontier scheduling: what it cost -----------------------------------
  // EWMA gauges backing the kMeasuredCost direction switch (the default).
  // Timing-dependent by nature — never asserted for determinism.
  /// EWMA seconds per examined element of full-scan active-set rebuilds,
  /// as last observed by the run (0 while unsampled).
  double scan_cost_per_element = 0.0;
  /// EWMA seconds per examined element of frontier-merge rebuilds, as last
  /// observed by the run (0 while unsampled).
  double frontier_cost_per_element = 0.0;

  // -- placement & scheduling (cost-model-driven FD / service) -------------
  /// Nodes the placement plan spanned (gauge: Merge keeps the max).
  uint64_t placement_nodes = 0;
  /// FD tasks a worker popped from its own node's queue.
  uint64_t placement_local_pops = 0;
  /// FD tasks a worker stole from another node's queue (same-node-first
  /// stealing makes this the cross-node traffic counter).
  uint64_t placement_remote_steals = 0;
  /// Predicted makespan of the placement plan: the largest per-node sum of
  /// predicted partition costs (gauge: Merge keeps the max).
  uint64_t makespan_predicted = 0;
  /// Measured makespan in deterministic work units: the largest per-node
  /// sum of wedges actually traversed peeling the partitions *assigned* to
  /// that node (attribution follows the plan, not the stealing thread, so
  /// the gauge is schedule-independent; gauge: Merge keeps the max).
  uint64_t makespan_measured = 0;

  // -- structure ----------------------------------------------------------
  uint64_t num_subsets = 0;       ///< P actually produced by RECEIPT CD.

  // -- time, seconds ------------------------------------------------------
  double seconds_counting = 0.0;  ///< pvBcnt.
  double seconds_cd = 0.0;        ///< RECEIPT CD peeling.
  double seconds_fd = 0.0;        ///< RECEIPT FD.
  double seconds_total = 0.0;     ///< whole decomposition.

  /// Sum of all wedge counters.
  uint64_t TotalWedges() const {
    return wedges_counting + wedges_cd + wedges_fd + wedges_other;
  }

  /// Accumulates `other` into this object (used to fold per-thread stats).
  void Merge(const PeelStats& other);

  /// Human-readable one-object dump (multi-line) for logs and examples.
  std::string ToString() const;
};

}  // namespace receipt

#endif  // RECEIPT_UTIL_STATS_H_
