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
///
/// Every field is also listed once in ForEachPeelStatsField below, which
/// drives Merge, ToString, the service's JSON stats object and the bench
/// JSON records.
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

  // -- frontier scheduling --------------------------------------------------
  // Per-direction build counts and elements examined. The direction rule
  // depends only on set sizes (see kFrontierDensity), so these counters are
  // identical across thread counts and repeats.
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

  /// Accumulates `other` into this object (used to fold per-thread stats):
  /// each field by its StatFold rule.
  void Merge(const PeelStats& other);

  /// Human-readable one-object dump (one `name=value` line per field) for
  /// logs and examples.
  std::string ToString() const;
};

/// How PeelStats::Merge folds a field: counters and times add up, plan
/// gauges keep the widest plan.
enum class StatFold { kSum, kMax };

/// The one list of PeelStats fields: calls `visit(name, member, fold)` for
/// each, where `member` is a `uint64_t` or `double` pointer-to-member and
/// `name` is also the field's JSON key.
template <typename Visit>
constexpr void ForEachPeelStatsField(Visit&& visit) {
  using S = PeelStats;
  constexpr StatFold kSum = StatFold::kSum;
  constexpr StatFold kMax = StatFold::kMax;
  visit("wedges_counting", &S::wedges_counting, kSum);
  visit("wedges_cd", &S::wedges_cd, kSum);
  visit("wedges_fd", &S::wedges_fd, kSum);
  visit("wedges_other", &S::wedges_other, kSum);
  visit("sync_rounds", &S::sync_rounds, kSum);
  visit("peel_iterations", &S::peel_iterations, kSum);
  visit("huc_recounts", &S::huc_recounts, kSum);
  visit("dgm_compactions", &S::dgm_compactions, kSum);
  visit("frontier_rounds", &S::frontier_rounds, kSum);
  visit("scan_rounds", &S::scan_rounds, kSum);
  visit("index_build_rounds", &S::index_build_rounds, kSum);
  visit("scan_build_elements", &S::scan_build_elements, kSum);
  visit("frontier_build_elements", &S::frontier_build_elements, kSum);
  visit("index_active_elements", &S::index_active_elements, kSum);
  visit("active_scan_elements", &S::active_scan_elements, kSum);
  visit("bound_walk_buckets", &S::bound_walk_buckets, kSum);
  visit("histogram_refines", &S::histogram_refines, kSum);
  visit("init_patch_elements", &S::init_patch_elements, kSum);
  visit("index_rebuild_elements", &S::index_rebuild_elements, kSum);
  visit("incremental_replay_elements", &S::incremental_replay_elements, kSum);
  visit("incremental_ranges_reused", &S::incremental_ranges_reused, kSum);
  visit("incremental_ranges_repeeled", &S::incremental_ranges_repeeled, kSum);
  visit("placement_nodes", &S::placement_nodes, kMax);
  visit("placement_local_pops", &S::placement_local_pops, kSum);
  visit("placement_remote_steals", &S::placement_remote_steals, kSum);
  visit("makespan_predicted", &S::makespan_predicted, kMax);
  visit("makespan_measured", &S::makespan_measured, kMax);
  visit("num_subsets", &S::num_subsets, kSum);
  visit("seconds_counting", &S::seconds_counting, kSum);
  visit("seconds_cd", &S::seconds_cd, kSum);
  visit("seconds_fd", &S::seconds_fd, kSum);
  visit("seconds_total", &S::seconds_total, kSum);
}

}  // namespace receipt

#endif  // RECEIPT_UTIL_STATS_H_
