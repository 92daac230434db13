#ifndef RECEIPT_SERVICE_DECOMPOSITION_SERVICE_H_
#define RECEIPT_SERVICE_DECOMPOSITION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "durability/manager.h"
#include "durability/recovery.h"
#include "engine/peel_control.h"
#include "engine/workspace.h"
#include "obs/observability.h"
#include "service/graph_registry.h"
#include "service/live_graph.h"
#include "service/result_cache.h"
#include "service/service_types.h"

namespace receipt::service {

/// Tuning knobs for DecompositionService.
struct ServiceOptions {
  /// Background worker threads executing requests. 0 starts none — queued
  /// work then runs only through RunQueuedInline(), which tests use for
  /// deterministic scheduling.
  int num_workers = 2;

  /// Bounded request queue: Submit blocks (backpressure) and TrySubmit
  /// fails once this many requests are waiting.
  size_t queue_capacity = 256;

  /// ResultCache byte budget; 0 disables caching.
  size_t cache_bytes = size_t{64} << 20;

  /// Max requests one worker executes back-to-back per queue pop. Batching
  /// groups queued requests targeting the same graph epoch so they run on
  /// scratch that is already warm for exactly that graph shape.
  size_t max_batch = 8;

  /// Schedule workers and queues against this many virtual nodes instead
  /// of the discovered topology (0 = auto). Tests force multi-queue
  /// scheduling on any machine this way; pinning is a no-op for virtual
  /// nodes. Scheduling never changes results, only locality.
  int placement_nodes = 0;

  /// Pin each background worker (and therefore the OpenMP teams it spawns,
  /// which inherit its mask) to its assigned NUMA node's CPUs, so a
  /// worker's WorkspacePool arenas are first-touched and re-used
  /// node-locally. Effective only on real topologies with more than one
  /// node; results are bit-identical either way.
  bool pin_numa = true;

  /// Live-update seal policy (see LiveOptions): buffered edge updates per
  /// graph before a seal is forced, …
  size_t live_max_pending_edges = 4096;
  /// … maximum age of the oldest buffered update before the next ApplyEdges
  /// call seals (0 disables age-based sealing), …
  uint64_t live_max_staleness_ms = 0;
  /// … and the re-peeled-range fraction past which an incremental seal
  /// stops attempting reuse (bit-identical either way).
  double live_dirty_fraction_limit = 0.5;

  /// Root directory for crash-safe durability: a write-ahead journal of
  /// registrations and accepted edge batches plus per-graph snapshots.
  /// Empty (the default) disables durability entirely — a pure in-memory
  /// service, exactly the pre-durability behaviour. Non-empty runs
  /// recovery at construction; check durability_error() afterwards.
  std::string data_dir;

  /// Journal fsync policy (see durability::FsyncPolicy): "always" fsyncs
  /// per accepted batch, "batch" amortizes, "off" trusts the page cache.
  durability::FsyncPolicy durability_fsync = durability::FsyncPolicy::kAlways;

  /// Journal segment rotation threshold and kBatch fsync coalescing window.
  uint64_t journal_segment_bytes = 64ull << 20;
  uint64_t journal_batch_bytes = 256ull << 10;

  /// Write a snapshot (and truncate covered journal segments) after every
  /// live seal.
  bool snapshot_on_seal = true;
};

/// The decomposition serving layer: turns the one-shot drivers into a
/// queryable capability over many resident graphs (the Polynesia-style
/// split of request handling from the update/compute engine).
///
///   GraphRegistry  — which graphs are resident (epoched, ref-counted)
///   this class     — bounded queue, worker pool, coalescing, batching
///   ResultCache    — (epoch, params) → payload, LRU byte budget
///
/// Execution path per request: resolve the graph to a handle at submit
/// time (eviction after that point is safe — the handle pins the graph),
/// coalesce with any identical in-flight request, serve from cache when the
/// (epoch, params) key hits, otherwise run the requested driver on the
/// worker's own WorkspacePool with a PeelControl wired through the engine's
/// peel loops. Worker pools persist across requests and are pre-sized to
/// the largest resident graph, so steady-state serving is allocation-free —
/// the workspace-reuse invariant of one decomposition, extended to the
/// whole request stream.
class DecompositionService {
 private:
  struct Task;  // declared early so Ticket can refer to it

 public:
  explicit DecompositionService(GraphRegistry& registry,
                                const ServiceOptions& options = {});
  ~DecompositionService();
  DecompositionService(const DecompositionService&) = delete;
  DecompositionService& operator=(const DecompositionService&) = delete;

  /// Enqueues a request. Returns immediately with a ready future on cache
  /// hit, unknown graph, invalid request, or shutdown; joins the future of
  /// an identical in-flight request (coalescing); otherwise blocks while
  /// the queue is full.
  std::shared_future<Response> Submit(const Request& request);

  /// Like Submit but never blocks: returns std::nullopt when the queue is
  /// full.
  std::optional<std::shared_future<Response>> TrySubmit(
      const Request& request);

  /// A submitted request plus the right to walk away from it. Front-ends
  /// hold one per in-flight client so a vanished client (disconnected
  /// socket) can withdraw its interest; when the last interested submitter
  /// abandons, the underlying engine run is cancelled through its
  /// PeelControl instead of burning a worker on output nobody will read.
  /// Requests answered without a task (cache hit, rejection) yield a ticket
  /// whose Abandon is a no-op.
  class Ticket {
   public:
    Ticket() = default;
    // Move-only: Abandon's idempotence rests on resetting *the* ticket's
    // task reference — a copy would let one submitter abandon twice and
    // cancel a run a coalesced twin still wants.
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    Ticket(Ticket&&) = default;
    Ticket& operator=(Ticket&&) = default;
    const std::shared_future<Response>& future() const { return future_; }

   private:
    friend class DecompositionService;
    std::shared_future<Response> future_;
    std::weak_ptr<Task> task_;
  };

  /// Non-blocking ticketed submit: std::nullopt when the queue is full
  /// (the HTTP front-end turns that into 429 admission rejection).
  std::optional<Ticket> TrySubmitTicket(const Request& request);

  /// Withdraws one submitter's interest in a ticketed request. Cancels the
  /// task's PeelControl once no interested submitter remains — coalesced
  /// twins keep the run alive. Idempotent per ticket; safe after the
  /// response resolved (the cancel is simply too late to matter).
  void Abandon(Ticket& ticket);

  /// Submit + wait.
  Response Execute(const Request& request);

  /// Drains the current queue on the calling thread (using a dedicated
  /// inline workspace pool) and returns the number of requests executed.
  /// With num_workers == 0 this is the only execution path, which makes
  /// scheduling — and therefore batching/coalescing behaviour — fully
  /// deterministic for tests.
  size_t RunQueuedInline();

  /// Stops the service. drain=true finishes all queued work first;
  /// drain=false drops queued requests (their futures resolve to
  /// kCancelled) and cancels executing ones through their PeelControl.
  /// Idempotent; the destructor calls Shutdown(true).
  void Shutdown(bool drain = true);

  struct Stats {
    uint64_t submitted = 0;    ///< Submit/TrySubmit calls accepted
    uint64_t completed = 0;    ///< tasks whose future was fulfilled
    /// Responses served from ResultCache: its hit count, since only the
    /// service looks results up.
    uint64_t cache_hits = 0;
    uint64_t coalesced = 0;    ///< submits joined to an in-flight twin
    uint64_t engine_runs = 0;  ///< actual decomposition executions
    uint64_t batched_follow_ons = 0;  ///< extra same-graph pops per batch
    uint64_t cancelled = 0;    ///< tasks resolved as kCancelled
    uint64_t abandoned = 0;    ///< Abandon calls on live tickets
  };
  Stats stats() const;
  ResultCache::Stats cache_stats() const;

  /// Scheduler/placement introspection for /statz and the CLI: which node
  /// each worker serves, how deep each node's queue is, and how often
  /// workers found work at home vs had to steal across nodes.
  struct SchedulerStats {
    int num_nodes = 1;             ///< scheduling domains (≥ 1)
    bool pinned = false;           ///< workers pinned to their node's CPUs
    std::vector<int> worker_nodes; ///< worker index → assigned node
    std::vector<size_t> node_queue_depths;  ///< per-node queued tasks
    uint64_t local_pops = 0;       ///< batches popped from the home queue
    uint64_t remote_steals = 0;    ///< batches stolen from another node
  };
  SchedulerStats scheduler_stats() const;

  /// Queue/worker introspection for serving dashboards (/statz): all
  /// instantaneous snapshots, racy by nature.
  size_t QueueDepth() const;
  size_t queue_capacity() const { return options_.queue_capacity; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// Workers currently parked on the empty queue (busy = total − idle).
  size_t IdleWorkers() const;

  /// Sum of buffer-growth events across all service-owned workspace pools.
  /// Flat across a steady-state workload = the hot path is allocation-free.
  /// The counters are relaxed atomics, so this is safe to sample from any
  /// thread at any time — /statz and /metrics scrape it live.
  uint64_t WorkspaceGrowths() const;

  /// The service-owned bundle every layer of this service reports
  /// through: request and engine metrics, read-through series over the
  /// cache, live and durability stats, engine spans. Front-ends render
  /// /metrics and /v1/traces from it and add their transport series.
  obs::Observability& observability() const { return *obs_; }

  /// Latency histograms for quantile summaries (/statz, CLI drain): end to
  /// end from admission to response, dequeue-to-start queue wait, and
  /// engine wall time. Never null.
  const obs::Histogram* request_latency_histogram() const {
    return request_latency_;
  }
  const obs::Histogram* queue_wait_histogram() const { return queue_wait_; }
  const obs::Histogram* engine_run_histogram() const {
    return engine_seconds_;
  }

  GraphRegistry& registry() { return *registry_; }

  /// Durable registration at a freshly allocated epoch: AllocateEpoch plus
  /// RegisterGraphAtEpoch. `epoch_out` (optional) receives the installed
  /// epoch.
  Status RegisterGraph(const std::string& name, BipartiteGraph graph,
                       uint64_t* epoch_out, std::string* error);

  /// LoadFile + durable registration (the /v1/graphs path variant).
  Status RegisterGraphFile(const std::string& name, const std::string& path,
                           uint64_t* epoch_out, std::string* error);

  /// The one registration path: installs `graph` at `epoch` (allocated
  /// locally by RegisterGraph, or dictated by the shard owner for a
  /// replicated register or sync). Journals the graph (name, epoch, shape,
  /// full edge list) *before* installing it, so a crash after the ack
  /// replays it and a follower rejoins from its own data dir at the
  /// recorded (graph, epoch) without peer resync. On a failed journal
  /// append nothing is installed and kShutdown is returned — never
  /// acknowledged-then-lost. Resident live state follows the one rule for
  /// every registration (local, replicated or journaled): it keeps its
  /// tracked configs and resyncs lazily with invalidated baselines, so the
  /// next seal of each config is a full run with bit-identical numbers.
  Status RegisterGraphAtEpoch(const std::string& name, BipartiteGraph graph,
                              uint64_t epoch, std::string* error);

  /// On-demand snapshot of one graph (POST /v1/admin/snapshot).
  Status SnapshotGraph(const std::string& name, std::string* error) {
    return live_->SnapshotNow(name, error);
  }

  /// True when this service runs with a data dir and recovery succeeded.
  bool durable() const { return durability_ != nullptr; }
  /// Null when not durable.
  durability::DurabilityManager* durability() { return durability_.get(); }
  /// What startup recovery found (meaningful only with a data dir).
  const durability::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }
  /// Non-empty when a data dir was configured but recovery refused to
  /// bring the service up durably (corrupt journal/snapshot, IO failure).
  /// The service still constructs — in-memory only — so the embedder
  /// decides whether that is fatal; the CLI treats it as fatal.
  const std::string& durability_error() const { return durability_error_; }

  /// The live-update half of the serving layer: edge-update buffering,
  /// seal policy, and incremental re-decomposition of tracked
  /// configurations. Shares this service's registry, result cache, and
  /// observability bundle, so a seal's epoch bump, cache priming, and
  /// dead-epoch drop are visible to every request path.
  LiveGraphManager& live() { return *live_; }

 private:
  /// Coalescing identity: the cache key plus the thread count (a request
  /// explicitly asking for different parallelism is not folded into a
  /// slower in-flight run).
  struct CoalesceKey {
    CacheKey key;
    int threads = 0;
    friend bool operator==(const CoalesceKey&, const CoalesceKey&) = default;
  };
  struct CoalesceKeyHash {
    size_t operator()(const CoalesceKey& k) const {
      return CacheKeyHash{}(k.key) * 31 + static_cast<size_t>(k.threads);
    }
  };

  struct Task {
    Request request;
    GraphHandle handle;  ///< pins the graph for the task's whole lifetime
    CacheKey cache_key;
    CoalesceKey coalesce_key;
    engine::PeelControl control;
    std::promise<Response> promise;
    std::shared_future<Response> future;
    uint64_t extra_submitters = 0;  ///< guarded by the service mutex
    uint64_t abandoned = 0;         ///< guarded by the service mutex
    /// Admission stamp (steady ns) taken when the task entered its node
    /// queue: dequeue-to-start delta feeds the queue-wait histogram, and
    /// the full delta at FinishTask is the request latency.
    uint64_t enqueue_ns = 0;
  };

  struct Worker {
    std::thread thread;
    engine::WorkspacePool pool;
    int node = 0;  ///< assigned scheduling domain (home queue)
  };

  static std::shared_future<Response> ReadyResponse(Response response);

  /// Resolves instrument handles out of the registry once, at
  /// construction; the request path then touches only relaxed atomics.
  /// Counts the cache, the live manager and the durability layer keep in
  /// their own stats() are registered as read-through series instead, so
  /// each is counted once. Runs after durability_ is opened.
  void RegisterInstruments();
  obs::Counter* OutcomeCounter(Status status) const {
    return requests_by_outcome_[static_cast<size_t>(status)];
  }
  /// Folds one completed engine run's PeelStats into the fleet counters.
  void BridgePeelStats(const PeelStats& stats);

  std::shared_future<Response> SubmitImpl(const Request& request,
                                          bool may_block, bool* would_block,
                                          std::shared_ptr<Task>* out_task =
                                              nullptr);
  void WorkerMain(Worker& worker);
  /// Sticky graph → node routing: the node that first served a graph keeps
  /// receiving its requests, so the graph's induced-subgraph arenas and
  /// support buffers stay resident on one node's workers. New graphs are
  /// dealt round-robin. Caller holds the mutex.
  int RouteLocked(const std::string& graph);
  /// Total tasks queued across every node queue. Caller holds the mutex.
  size_t TotalQueuedLocked() const;
  /// Pops the front task of the home node's queue — stealing from the
  /// other nodes in ring order when home is empty — plus up to max_batch-1
  /// tasks on the same graph epoch from that same queue. Caller holds the
  /// mutex and guarantees a non-empty queue somewhere.
  std::vector<std::shared_ptr<Task>> PopBatchLocked(int home);
  void ExecuteTask(const std::shared_ptr<Task>& task,
                   engine::WorkspacePool& pool);
  Response RunEngine(Task& task, engine::WorkspacePool& pool);
  void FinishTask(const std::shared_ptr<Task>& task, Response response);

  GraphRegistry* registry_;
  const ServiceOptions options_;
  /// Declared first so it outlives every component its read-through series
  /// and LiveGraphManager's instruments point into.
  const std::unique_ptr<obs::Observability> obs_ =
      std::make_unique<obs::Observability>();
  ResultCache cache_;
  /// Constructed in the ctor body from the normalized options; never null
  /// after.
  std::unique_ptr<LiveGraphManager> live_;
  /// Non-null iff options.data_dir was set and recovery succeeded.
  std::unique_ptr<durability::DurabilityManager> durability_;
  durability::RecoveryReport recovery_report_;
  std::string durability_error_;

  /// Cached instrument handles (stable pointers into the registry).
  obs::Counter* requests_by_outcome_[5] = {};
  obs::Histogram* request_latency_ = nullptr;
  obs::Histogram* queue_wait_ = nullptr;
  obs::Histogram* engine_seconds_ = nullptr;
  obs::Counter* wedges_counting_ = nullptr;
  obs::Counter* wedges_cd_ = nullptr;
  obs::Counter* wedges_fd_ = nullptr;
  obs::Counter* wedges_other_ = nullptr;
  obs::Counter* rounds_sync_ = nullptr;
  obs::Counter* rounds_frontier_ = nullptr;
  obs::Counter* rounds_scan_ = nullptr;
  obs::Counter* rounds_index_ = nullptr;
  obs::Counter* huc_recounts_total_ = nullptr;
  obs::Counter* dgm_compactions_total_ = nullptr;
  obs::Counter* fd_local_pops_total_ = nullptr;
  obs::Counter* fd_remote_steals_total_ = nullptr;
  obs::Gauge* makespan_predicted_ = nullptr;
  obs::Gauge* makespan_measured_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  /// One bounded queue per scheduling domain; capacity is shared (the
  /// queue_capacity bound applies to the total across nodes).
  std::vector<std::deque<std::shared_ptr<Task>>> node_queues_;
  /// Sticky graph → node routing table (see RouteLocked). Bounded by the
  /// number of distinct graph names ever submitted.
  std::unordered_map<std::string, int> graph_node_;
  int next_route_node_ = 0;  ///< round-robin cursor for unseen graphs
  int num_nodes_ = 1;        ///< scheduling domains (≥ 1)
  bool pinned_ = false;      ///< workers pinned to their node's CPUs
  uint64_t local_pops_ = 0;      ///< home-queue batch pops
  uint64_t remote_steals_ = 0;   ///< cross-node batch steals
  std::unordered_map<CoalesceKey, std::weak_ptr<Task>, CoalesceKeyHash>
      inflight_;
  size_t waiting_workers_ = 0;  ///< workers blocked on queue_not_empty_
  bool stopping_ = false;
  bool joined_ = false;
  Stats stats_;  ///< cache_hits stays 0 here: stats() reads the cache

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex inline_mu_;               ///< serializes RunQueuedInline
  engine::WorkspacePool inline_pool_;  ///< RunQueuedInline scratch
};

}  // namespace receipt::service

#endif  // RECEIPT_SERVICE_DECOMPOSITION_SERVICE_H_
