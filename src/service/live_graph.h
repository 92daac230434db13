#ifndef RECEIPT_SERVICE_LIVE_GRAPH_H_
#define RECEIPT_SERVICE_LIVE_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "durability/manager.h"
#include "engine/peel_engine.h"
#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "obs/observability.h"
#include "service/graph_registry.h"
#include "service/result_cache.h"
#include "service/service_types.h"

namespace receipt::service {

/// Seal policy and engine knobs for the live-update path.
struct LiveOptions {
  /// Seal (fold the pending batch into a new epoch) once this many updates
  /// are buffered.
  size_t max_pending_edges = 4096;

  /// Seal once the oldest pending update is this old. Checked lazily on
  /// the next ApplyEdges call — the manager has no timer thread. 0
  /// disables age-based sealing.
  uint64_t max_staleness_ms = 0;

  /// Forwarded to IncrementalSeed::dirty_fraction_limit: past this
  /// fraction of re-peeled sealed ranges a seal stops attempting reuse and
  /// finishes as a plain full recompute (bit-identical either way).
  double dirty_fraction_limit = 0.5;

  /// OpenMP threads for seal-time engine runs when the caller passes none.
  int seal_threads = 1;
};

/// A decomposition configuration kept incrementally up to date across
/// seals. kTipU/kTipV pair with RECEIPT, kWing with RECEIPT-W.
struct LiveConfig {
  RequestKind kind = RequestKind::kTipU;
  uint32_t partitions = 150;
  friend bool operator==(const LiveConfig&, const LiveConfig&) = default;
  friend auto operator<=>(const LiveConfig&, const LiveConfig&) = default;
};

/// What one seal did for one tracked configuration.
struct SealConfigReport {
  LiveConfig config;
  /// False when the baseline was unusable or the dirty-fraction limit
  /// tripped (the run completed as a full recompute).
  bool incremental = false;
  uint64_t ranges_reused = 0;
  uint64_t ranges_repeeled = 0;
  /// Subsets whose fine phase re-ran (== ranges_repeeled when incremental).
  uint64_t subsets_repeeled = 0;
  uint64_t subsets_total = 0;
};

/// Result of one ApplyEdges / ApplyReplicated call.
struct ApplyResult {
  Status status = Status::kOk;
  std::string error;          ///< set when status != kOk
  size_t accepted = 0;        ///< updates buffered by this call
  size_t pending = 0;         ///< buffered updates after this call
  bool sealed = false;        ///< this call folded the buffer into an epoch
  /// Current registry epoch (new when sealed). On a rejected
  /// ApplyReplicated it is the local epoch, so a caller detects a diverged
  /// chain as `epoch != expected_epoch`.
  uint64_t epoch = 0;
  double seal_seconds = 0.0;  ///< wall time of the seal, 0 when not sealed
  std::vector<SealConfigReport> reports;  ///< one per tracked config
};

/// The live-update half of the serving layer: resident per-graph state
/// (current edge list, pending update buffer, per-configuration sealed
/// baselines) that turns edge-update batches into *incremental* coarse
/// passes — only ranges whose membership could have changed are re-peeled,
/// and only their subsets re-run the fine phase; everything else is reused
/// verbatim from the sealed baseline. Results are bit-identical to a
/// from-scratch decomposition of the post-batch graph by construction (the
/// engine re-peels any range it cannot *prove* clean), which the
/// incremental churn suite asserts.
///
/// Reads stay consistent throughout: requests keep resolving against the
/// last sealed registry epoch while updates buffer, and a seal installs
/// the new epoch atomically via GraphRegistry::Register — the
/// update/compute split of the Polynesia-style HTAP designs, applied to
/// decomposition serving. Sealing also primes the ResultCache with the new
/// epoch's numbers and drops the dead epoch's entries, so a post-seal
/// decompose of a tracked configuration is a cache hit, never a recompute.
///
/// One write path: local batches (ApplyEdges), batches a shard owner
/// replicates (ApplyReplicated) and journaled batches recovery replays
/// (also ApplyReplicated, with the journal as the owner) all go through
/// one buffer routine and one seal routine. Every write, export and
/// snapshot first resyncs the resident state against the registry: a
/// registration — local, replicated or journaled — replaces the edge list
/// and drops the pending buffer but keeps the tracked configurations, with
/// their baselines invalidated, so the next seal of each is a full run
/// (bit-identical numbers either way).
///
/// Thread safety: per-graph state is guarded by a per-state mutex (seals
/// of different graphs proceed concurrently); the registry and cache are
/// themselves thread-safe.
class LiveGraphManager {
 public:
  LiveGraphManager(GraphRegistry& registry, ResultCache& cache,
                   const LiveOptions& options, obs::Observability& obs);
  LiveGraphManager(const LiveGraphManager&) = delete;
  LiveGraphManager& operator=(const LiveGraphManager&) = delete;

  /// Starts (or refreshes) live tracking of `name` for `config`: runs one
  /// full decomposition with patch-log recording and stores it as the
  /// sealed baseline the next seal folds against. Synchronous. Returns
  /// kNotFound for unregistered names, kBadRequest for invalid configs.
  Status Track(const std::string& name, const LiveConfig& config,
               int threads, std::string* error);

  /// Buffers `updates` against `name`, then seals when the policy says so
  /// (`force_seal`, buffer ≥ max_pending_edges, or the oldest pending
  /// update exceeded max_staleness_ms). `track` configs are tracked first
  /// (baselines built on the pre-batch graph when missing, so the seal
  /// itself already runs incrementally). Updates whose endpoints fall
  /// outside the registered shape are rejected as kBadRequest with the
  /// whole batch — growing the shape requires re-registration.
  ApplyResult ApplyEdges(const std::string& name,
                         std::span<const EdgeUpdate> updates, bool force_seal,
                         int threads = 0,
                         std::span<const LiveConfig> track = {});

  /// Applies a batch whose epochs were minted elsewhere: a shard owner's
  /// replicated batch, or — during recovery, before durability is
  /// attached — a journaled batch (`seal` false, `expected_epoch` the
  /// recorded epoch) or a journaled seal (empty `updates`, `seal` true,
  /// `expected_epoch` -> `sealed_epoch`). Unlike ApplyEdges this never
  /// policy-seals: the owner dictates every seal point and `sealed_epoch`
  /// is installed as-is. With durability attached it journals and
  /// snapshots like a local write, so a follower rejoins from its own data
  /// dir at the owner's epochs. Returns kBadRequest with the local epoch in
  /// `epoch` when `expected_epoch` does not match the local chain, and with
  /// the local buffer length in `pending` when `expected_pending` (the
  /// owner's buffer length before the batch) does not match the local
  /// buffer — an unsealed batch does not advance the epoch, so the epoch
  /// alone cannot show a missed one. Either way the cluster answers 409
  /// and the owner falls back to a full-state sync; recovery, which passes
  /// no `expected_pending`, refuses the data dir.
  ApplyResult ApplyReplicated(const std::string& name,
                              std::span<const EdgeUpdate> updates, bool seal,
                              uint64_t expected_epoch, uint64_t sealed_epoch,
                              int threads = 0,
                              std::optional<size_t> expected_pending = {});

  /// A copy of one graph's replicated essentials: the sealed edge list at
  /// `epoch` plus the acked-but-unsealed pending buffer. What the owner
  /// ships to a follower whose epoch chain diverged (full-state sync).
  struct ExportedState {
    uint64_t epoch = 0;
    uint32_t num_u = 0;
    uint32_t num_v = 0;
    std::vector<BipartiteGraph::Edge> edges;
    std::vector<EdgeUpdate> pending;
  };

  /// Copies the current state of `name`, resynced against the registry
  /// (false when unregistered).
  bool ExportState(const std::string& name, ExportedState* out);

  /// Buffered updates for `name`, resynced against the registry (0 when
  /// untracked or unregistered).
  size_t PendingEdges(const std::string& name);

  // -- durability ---------------------------------------------------------

  /// Attaches the durability layer. Once set, every accepted batch is
  /// journaled *before* it is buffered (a failed append rejects the batch
  /// with kShutdown — never acknowledged, never buffered), every seal
  /// journals its old→new epoch transition before installing it, and —
  /// when the policy says so — writes a snapshot after installing.
  void SetDurability(durability::DurabilityManager* durability);

  /// Recovery: installs a snapshot as the graph's live state — registers
  /// the graph at its recorded epoch, re-buffers the persisted pending
  /// updates, restores per-config baselines (marked non-incremental: the
  /// next seal recomputes fully, bit-identical either way), and primes the
  /// result cache with the sealed numbers.
  Status RestoreSnapshot(const durability::SnapshotData& data,
                         std::string* error);

  /// Recovery's replay of a journaled unregister record (data dirs may
  /// hold them): discards resident live state for `name`. Not safe against
  /// concurrent writes to `name` (a writer that already looked the state
  /// up would keep using it), so only recovery, which runs before serving
  /// starts, calls it.
  bool DropState(const std::string& name);

  /// Writes an on-demand snapshot of `name` (the admin endpoint), resynced
  /// against the registry and covering the journal up to now — including
  /// acked-but-unsealed pending updates.
  /// kBadRequest without a durability layer, kNotFound for unknown names,
  /// kShutdown when the write fails.
  Status SnapshotNow(const std::string& name, std::string* error);

  /// The one count of live-path events; DecompositionService exports it as
  /// the receipt_live_* read-through series.
  struct Stats {
    uint64_t batches_total = 0;   ///< non-empty batches buffered
    uint64_t updates_total = 0;   ///< individual edge updates buffered
    uint64_t seals_total = 0;     ///< seals executed
    uint64_t runs_incremental = 0;  ///< per-config seal runs with reuse
    uint64_t runs_full = 0;         ///< per-config seal runs, full fallback
    uint64_t ranges_reused = 0;
    uint64_t ranges_repeeled = 0;
    size_t pending_edges = 0;     ///< buffered updates across all graphs
  };
  Stats stats() const;

 private:
  /// Per-configuration sealed baseline: everything the next seal needs to
  /// fold a batch incrementally. Id is VertexId for tip, EdgeOffset for
  /// wing.
  template <typename Id>
  struct Baseline {
    engine::RangeResult<Id> sealed;
    engine::CoarsePatchLog log;
    /// Supports counted at the sealed run's start (the seed's old_support).
    std::vector<Count> old_support;
    /// The sealed decomposition numbers (side-local / edge ids).
    std::vector<Count> numbers;
    bool valid = false;
  };

  struct LiveGraphState {
    mutable std::mutex mu;
    std::string name;
    GraphHandle handle;  ///< pins the currently sealed registration
    /// The current graph's edge list, sorted (u asc, then v) — for wing
    /// this order *is* the edge-id order, which the seal-time remap
    /// exploits.
    std::vector<BipartiteGraph::Edge> edges;
    std::vector<EdgeUpdate> pending;
    uint64_t first_pending_ns = 0;
    std::map<LiveConfig, Baseline<VertexId>> tip;
    std::map<LiveConfig, Baseline<EdgeOffset>> wing;
    engine::WorkspacePool pool;  ///< seal-time scratch, reused across seals
  };

  LiveGraphState* GetOrCreateState(const std::string& name);
  LiveGraphState* FindState(const std::string& name) const;

  /// Brings the state up to the registry's current registration of its
  /// name. A registration the state has not seen (a re-register, a
  /// replicated register or sync, a journaled one during recovery)
  /// replaces the edge list, drops the pending buffer and invalidates
  /// every baseline while keeping the tracked configs. False (with
  /// *error) when the name is no longer registered. Caller holds the state
  /// mutex.
  bool ResyncLocked(LiveGraphState& state, std::string* error);

  /// The one buffer routine behind ApplyEdges and ApplyReplicated: resync,
  /// check `expected_epoch` (0 = whatever the local chain is at) and
  /// `expected_pending` (unset = whatever the buffer holds), check the
  /// batch fits the registered shape, journal it, append it to the pending
  /// buffer, count it. Fills result->status/error/epoch/accepted/pending;
  /// false when the batch was rejected. Caller holds the state mutex.
  bool BufferLocked(LiveGraphState& state, std::span<const EdgeUpdate> updates,
                    uint64_t expected_epoch,
                    std::optional<size_t> expected_pending,
                    ApplyResult* result);

  /// Builds (or rebuilds) the baseline for one config on the state's
  /// current graph: a seal run with nothing to reuse. Caller holds the
  /// state mutex.
  Status TrackLocked(LiveGraphState& state, const LiveConfig& config,
                     int threads, std::string* error);

  /// Folds the pending buffer into a new graph + epoch, running every
  /// tracked configuration incrementally, journals the old -> new epoch
  /// transition and snapshots per policy (both only once durability is
  /// attached — never during recovery replay). `pinned_epoch` != 0
  /// installs exactly that epoch (the owner's, or the journal's) instead
  /// of allocating one. Caller holds the state mutex.
  void SealLocked(LiveGraphState& state, int threads, ApplyResult* result,
                  uint64_t pinned_epoch = 0);

  /// Builds a SnapshotData from the state and hands it to the durability
  /// layer. Caller holds the state mutex (which also guarantees no append
  /// for this graph races the covered-LSN capture).
  bool WriteSnapshotLocked(LiveGraphState& state, std::string* error);

  /// One tip configuration's seal run (old baseline -> new baseline on
  /// `new_graph`). `changed` lists the edges whose presence actually
  /// changed. Returns the payload to prime the cache with.
  std::shared_ptr<Payload> SealTip(LiveGraphState& state,
                                   const LiveConfig& config,
                                   Baseline<VertexId>& baseline,
                                   const BipartiteGraph& old_graph,
                                   const BipartiteGraph& new_graph,
                                   std::span<const BipartiteGraph::Edge> changed,
                                   int threads, SealConfigReport* report);

  /// One wing configuration's seal run. `old_to_new` maps sealed edge ids
  /// to new-graph edge ids (kNoEdge for deleted edges).
  std::shared_ptr<Payload> SealWing(
      LiveGraphState& state, const LiveConfig& config,
      Baseline<EdgeOffset>& baseline, const BipartiteGraph& old_graph,
      const BipartiteGraph& new_graph,
      std::span<const BipartiteGraph::Edge> changed,
      std::span<const EdgeOffset> old_to_new, int threads,
      SealConfigReport* report);

  /// The shared tail of SealTip and SealWing: reports what the run
  /// reused (`outcome` is null for an unseeded run), installs `next` as the
  /// config's baseline, and returns the payload that primes the cache.
  template <typename Id>
  static std::shared_ptr<Payload> InstallRun(
      const LiveConfig& config, const engine::IncrementalOutcome* outcome,
      const PeelStats& stats, Baseline<Id> next, Baseline<Id>* baseline,
      SealConfigReport* report);

  void RegisterInstruments();

  GraphRegistry* registry_;
  ResultCache* cache_;
  const LiveOptions options_;
  obs::Observability* obs_;
  durability::DurabilityManager* durability_ = nullptr;

  obs::Gauge* dirty_permille_ = nullptr;
  obs::Histogram* seal_seconds_ = nullptr;

  mutable std::mutex mu_;  ///< guards states_ and stats_
  std::map<std::string, std::unique_ptr<LiveGraphState>> states_;
  Stats stats_;
};

}  // namespace receipt::service

#endif  // RECEIPT_SERVICE_LIVE_GRAPH_H_
