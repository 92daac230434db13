#include "service/decomposition_service.h"

#include <algorithm>
#include <utility>

#include "engine/topology.h"
#include "graph/graph_io.h"
#include "tip/bup.h"
#include "tip/parb.h"
#include "tip/receipt.h"
#include "tip/tip_common.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt::service {

namespace {

ServiceOptions NormalizeOptions(ServiceOptions options) {
  // A zero-capacity queue can never admit work: Submit would block forever
  // and zero-worker Execute would spin.
  options.queue_capacity = std::max<size_t>(1, options.queue_capacity);
  options.max_batch = std::max<size_t>(1, options.max_batch);
  return options;
}

/// Read-through source for one field of whatever `read_stats()` returns.
template <typename ReadStats, typename Stats>
obs::ReadFunc StatsField(ReadStats read_stats, uint64_t Stats::*field) {
  return [read_stats, field] { return read_stats().*field; };
}

}  // namespace

DecompositionService::DecompositionService(GraphRegistry& registry,
                                           const ServiceOptions& options)
    : registry_(&registry),
      options_(NormalizeOptions(options)),
      cache_(options.cache_bytes) {
  LiveOptions live_options;
  live_options.max_pending_edges =
      std::max<size_t>(1, options_.live_max_pending_edges);
  live_options.max_staleness_ms = options_.live_max_staleness_ms;
  live_options.dirty_fraction_limit = options_.live_dirty_fraction_limit;
  live_ = std::make_unique<LiveGraphManager>(*registry_, cache_, live_options,
                                             *obs_);

  if (!options_.data_dir.empty()) {
    durability::DurabilityOptions durability_options;
    durability_options.data_dir = options_.data_dir;
    durability_options.fsync = options_.durability_fsync;
    durability_options.segment_bytes = options_.journal_segment_bytes;
    durability_options.batch_bytes = options_.journal_batch_bytes;
    durability_options.snapshot_on_seal = options_.snapshot_on_seal;
    // Recovery runs before the worker pool exists, so replayed seals never
    // race live traffic. Failure leaves the service up but in-memory only
    // (durability_error_ set) — the embedder decides whether to abort.
    durability_ = durability::OpenWithRecovery(
        durability_options, *registry_, *live_, *obs_, &recovery_report_,
        &durability_error_);
  }
  RegisterInstruments();

  const int num_workers = std::max(0, options_.num_workers);

  // Scheduling domains: forced virtual nodes (tests), else the machine's
  // NUMA topology (one queue on single-node machines — the layout then
  // degenerates to the plain shared queue).
  const engine::NumaTopology* topology = nullptr;
  if (options_.placement_nodes > 0) {
    num_nodes_ = options_.placement_nodes;
  } else {
    topology = &engine::SystemTopology();
    num_nodes_ = topology->num_nodes();
  }
  num_nodes_ = std::max(1, num_nodes_);
  node_queues_.resize(static_cast<size_t>(num_nodes_));
  pinned_ = options_.pin_numa && topology != nullptr &&
            !topology->synthetic() && topology->num_nodes() > 1;

  // Workers spread across nodes proportional to CPU counts on a real
  // topology, round-robin over virtual nodes otherwise.
  std::vector<int> node_of_worker;
  if (topology != nullptr && num_workers > 0) {
    node_of_worker = topology->AssignWorkers(num_workers);
  }
  if (static_cast<int>(node_of_worker.size()) != num_workers) {
    node_of_worker.resize(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) node_of_worker[i] = i % num_nodes_;
  }

  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* worker = workers_.back().get();
    worker->node = node_of_worker[static_cast<size_t>(i)];
    worker->thread = std::thread([this, worker] { WorkerMain(*worker); });
  }
}

DecompositionService::~DecompositionService() { Shutdown(/*drain=*/true); }

void DecompositionService::RegisterInstruments() {
  obs::MetricsRegistry& m = obs_->metrics;
  constexpr Status kStatuses[] = {Status::kOk, Status::kNotFound,
                                  Status::kBadRequest, Status::kCancelled,
                                  Status::kShutdown};
  for (const Status s : kStatuses) {
    requests_by_outcome_[static_cast<size_t>(s)] =
        m.GetCounter("receipt_requests_total",
                     "Decomposition requests resolved, by outcome.",
                     {{"outcome", StatusName(s)}});
  }
  m.AddCounterFunc("receipt_cache_hits_total",
                   "Responses served from the ResultCache.", {},
                   [this] { return cache_.stats().hits; });
  m.AddCounterFunc("receipt_coalesced_total",
                   "Submits joined to an identical in-flight request.", {},
                   [this] { return stats().coalesced; });
  m.AddCounterFunc("receipt_engine_runs_total",
                   "Actual decomposition engine executions.", {},
                   [this] { return stats().engine_runs; });
  request_latency_ = m.GetHistogram(
      "receipt_request_latency_seconds",
      "Admission-to-response latency of queued decomposition requests.");
  queue_wait_ = m.GetHistogram(
      "receipt_queue_wait_seconds",
      "Dequeue-to-start delay: time a request sat in its node queue.");
  engine_seconds_ = m.GetHistogram(
      "receipt_engine_run_seconds",
      "Wall time of one decomposition engine run (seconds_total).");
  const char* wedges_help = "Wedges traversed by engine runs, by phase.";
  wedges_counting_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                                  {{"phase", "counting"}});
  wedges_cd_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                            {{"phase", "cd"}});
  wedges_fd_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                            {{"phase", "fd"}});
  wedges_other_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                               {{"phase", "other"}});
  const char* rounds_help = "Engine scheduling rounds, by kind.";
  rounds_sync_ = m.GetCounter("receipt_engine_rounds_total", rounds_help,
                              {{"kind", "sync"}});
  rounds_frontier_ = m.GetCounter("receipt_engine_rounds_total", rounds_help,
                                  {{"kind", "frontier"}});
  rounds_scan_ = m.GetCounter("receipt_engine_rounds_total", rounds_help,
                              {{"kind", "scan"}});
  rounds_index_ = m.GetCounter("receipt_engine_rounds_total", rounds_help,
                               {{"kind", "index_build"}});
  huc_recounts_total_ =
      m.GetCounter("receipt_engine_huc_recounts_total",
                   "Hybrid Update Computation re-counts across runs.");
  dgm_compactions_total_ =
      m.GetCounter("receipt_engine_dgm_compactions_total",
                   "Dynamic Graph Maintenance compactions across runs.");
  fd_local_pops_total_ = m.GetCounter(
      "receipt_engine_fd_local_pops_total",
      "FD scheduler tasks popped from the home node queue.");
  fd_remote_steals_total_ = m.GetCounter(
      "receipt_engine_fd_remote_steals_total",
      "FD scheduler tasks stolen from another node's queue.");
  makespan_predicted_ = m.GetGauge(
      "receipt_engine_makespan_predicted",
      "Predicted per-node peel-cost makespan of the most recent run.");
  makespan_measured_ = m.GetGauge(
      "receipt_engine_makespan_measured",
      "Measured per-node wedge-work makespan of the most recent run.");

  // Read-through series: the owning component's stats() holds the count.
  using LiveStats = LiveGraphManager::Stats;
  const auto live = [this] { return live_->stats(); };
  const char* seal_runs_help =
      "Per-configuration live-seal engine runs, by mode.";
  m.AddCounterFunc("receipt_live_seal_runs_total", seal_runs_help,
                   {{"mode", "incremental"}},
                   StatsField(live, &LiveStats::runs_incremental));
  m.AddCounterFunc("receipt_live_seal_runs_total", seal_runs_help,
                   {{"mode", "full"}}, StatsField(live, &LiveStats::runs_full));
  const char* ranges_help =
      "Sealed coarse ranges at seal time, by disposition.";
  m.AddCounterFunc("receipt_live_ranges_total", ranges_help,
                   {{"state", "reused"}},
                   StatsField(live, &LiveStats::ranges_reused));
  m.AddCounterFunc("receipt_live_ranges_total", ranges_help,
                   {{"state", "repeeled"}},
                   StatsField(live, &LiveStats::ranges_repeeled));
  m.AddCounterFunc("receipt_live_updates_total",
                   "Edge updates buffered into live graphs.", {},
                   StatsField(live, &LiveStats::updates_total));
  m.AddGaugeFunc("receipt_live_pending_edges",
                 "Edge updates currently buffered across live graphs.", {},
                 [this] { return live_->stats().pending_edges; });

  if (durability_ == nullptr) return;
  using durability::DurabilityStats;
  using durability::JournalStats;
  const auto durable = [this] { return durability_->stats(); };
  const auto journal = [this] { return durability_->stats().journal; };
  m.AddCounterFunc("receipt_journal_appends_total", "Journal records appended",
                   {}, StatsField(journal, &JournalStats::appends));
  m.AddCounterFunc("receipt_journal_bytes_total", "Journal bytes written", {},
                   StatsField(journal, &JournalStats::bytes_written));
  m.AddCounterFunc("receipt_journal_append_failures_total",
                   "Journal append failures", {},
                   StatsField(journal, &JournalStats::append_failures));
  m.AddCounterFunc("receipt_snapshot_writes_total", "Snapshot files written",
                   {}, StatsField(durable, &DurabilityStats::snapshots_written));
  m.AddCounterFunc("receipt_snapshot_failures_total",
                   "Snapshot write failures", {},
                   StatsField(durable, &DurabilityStats::snapshot_failures));
}

void DecompositionService::BridgePeelStats(const PeelStats& stats) {
  wedges_counting_->Increment(stats.wedges_counting);
  wedges_cd_->Increment(stats.wedges_cd);
  wedges_fd_->Increment(stats.wedges_fd);
  wedges_other_->Increment(stats.wedges_other);
  rounds_sync_->Increment(stats.sync_rounds);
  rounds_frontier_->Increment(stats.frontier_rounds);
  rounds_scan_->Increment(stats.scan_rounds);
  rounds_index_->Increment(stats.index_build_rounds);
  huc_recounts_total_->Increment(stats.huc_recounts);
  dgm_compactions_total_->Increment(stats.dgm_compactions);
  fd_local_pops_total_->Increment(stats.placement_local_pops);
  fd_remote_steals_total_->Increment(stats.placement_remote_steals);
  makespan_predicted_->Set(stats.makespan_predicted);
  makespan_measured_->Set(stats.makespan_measured);
  engine_seconds_->ObserveSeconds(stats.seconds_total);
}

std::shared_future<Response> DecompositionService::ReadyResponse(
    Response response) {
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future().share();
}

std::shared_future<Response> DecompositionService::Submit(
    const Request& request) {
  return SubmitImpl(request, /*may_block=*/true, /*would_block=*/nullptr);
}

std::optional<std::shared_future<Response>> DecompositionService::TrySubmit(
    const Request& request) {
  bool would_block = false;
  auto future = SubmitImpl(request, /*may_block=*/false, &would_block);
  if (would_block) return std::nullopt;
  return future;
}

std::optional<DecompositionService::Ticket>
DecompositionService::TrySubmitTicket(const Request& request) {
  bool would_block = false;
  std::shared_ptr<Task> task;
  Ticket ticket;
  ticket.future_ = SubmitImpl(request, /*may_block=*/false, &would_block,
                              &task);
  if (would_block) return std::nullopt;
  ticket.task_ = task;
  return ticket;
}

void DecompositionService::Abandon(Ticket& ticket) {
  const auto task = ticket.task_.lock();
  ticket.task_.reset();  // a second Abandon on this ticket is a no-op
  if (task == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++task->abandoned;
  ++stats_.abandoned;
  // Interest = the original ticketed submitter + every coalesced twin.
  // The run is only cancelled once nobody is left to read the result.
  if (task->abandoned > task->extra_submitters) task->control.RequestCancel();
}

Response DecompositionService::Execute(const Request& request) {
  // Without background workers only this thread can drain the queue, so a
  // blocking Submit against a full queue would deadlock. Use the
  // non-blocking submit and drain between attempts instead.
  if (options_.num_workers <= 0) {
    for (;;) {
      if (auto future = TrySubmit(request)) {
        RunQueuedInline();
        return future->get();
      }
      RunQueuedInline();  // queue full: make room, then retry
    }
  }
  return Submit(request).get();
}

std::shared_future<Response> DecompositionService::SubmitImpl(
    const Request& request, bool may_block, bool* would_block,
    std::shared_ptr<Task>* out_task) {
  Response rejection;
  if ((request.kind == RequestKind::kWing) !=
      IsWingAlgorithm(request.algorithm)) {
    rejection.status = Status::kBadRequest;
    rejection.error = std::string("algorithm ") +
                      AlgorithmName(request.algorithm) +
                      " cannot serve a " + RequestKindName(request.kind) +
                      " request";
    OutcomeCounter(Status::kBadRequest)->Increment();
    return ReadyResponse(std::move(rejection));
  }

  GraphHandle handle = registry_->Acquire(request.graph);
  if (!handle) {
    rejection.status = Status::kNotFound;
    rejection.error = "graph '" + request.graph + "' is not registered";
    OutcomeCounter(Status::kNotFound)->Increment();
    return ReadyResponse(std::move(rejection));
  }

  Request normalized = request;
  normalized.threads = std::max(1, request.threads);
  normalized.partitions = std::max(1, request.partitions);
  // The baselines never read `partitions`; normalize it out of the key so
  // equivalent requests coalesce and hit the cache regardless of the value.
  if (normalized.algorithm == Algorithm::kBup ||
      normalized.algorithm == Algorithm::kParb ||
      normalized.algorithm == Algorithm::kWingBup) {
    normalized.partitions = 1;
  }
  const CacheKey cache_key{normalized.graph, handle.epoch(), normalized.kind,
                           normalized.algorithm,
                           static_cast<uint32_t>(normalized.partitions)};

  // Fast path: an identical (epoch, params) result is already resident.
  if (auto hit = cache_.Get(cache_key)) {
    Response response;
    response.payload = std::move(hit);
    response.cache_hit = true;
    response.graph_epoch = cache_key.epoch;
    OutcomeCounter(Status::kOk)->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    return ReadyResponse(std::move(response));
  }

  const CoalesceKey coalesce_key{cache_key, normalized.threads};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) {
      rejection.status = Status::kShutdown;
      rejection.error = "service is shutting down";
      OutcomeCounter(Status::kShutdown)->Increment();
      return ReadyResponse(std::move(rejection));
    }
    // Coalesce with an identical queued or executing request: both callers
    // share one engine run (and one future). A twin whose run was already
    // cancelled (every ticketed submitter abandoned it) is dead weight — a
    // fresh submitter must get a fresh task, not a guaranteed kCancelled.
    if (const auto it = inflight_.find(coalesce_key); it != inflight_.end()) {
      if (auto twin = it->second.lock();
          twin != nullptr && !twin->control.Cancelled()) {
        ++twin->extra_submitters;
        ++stats_.submitted;
        ++stats_.coalesced;
        // Instantaneous marker on the *joining* request's trace pointing
        // at the run it attached to; the engine spans live on the first
        // submitter's trace id.
        if (normalized.trace.enabled()) {
          normalized.trace.Emit("coalesce.attach",
                                obs::TraceRecorder::NowNs(), 0,
                                twin->request.trace.trace_id);
        }
        if (out_task != nullptr) *out_task = twin;
        return twin->future;
      }
      inflight_.erase(it);
    }
    if (TotalQueuedLocked() < options_.queue_capacity) break;
    if (!may_block) {
      *would_block = true;
      return {};
    }
    queue_not_full_.wait(lock);
  }

  auto task = std::make_shared<Task>();
  task->request = std::move(normalized);
  task->handle = std::move(handle);
  task->cache_key = cache_key;
  task->coalesce_key = coalesce_key;
  task->future = task->promise.get_future().share();
  task->enqueue_ns = obs::TraceRecorder::NowNs();
  const int node = RouteLocked(task->request.graph);
  node_queues_[static_cast<size_t>(node)].push_back(task);
  inflight_[coalesce_key] = task;
  ++stats_.submitted;
  queue_not_empty_.notify_one();
  if (out_task != nullptr) *out_task = task;
  return task->future;
}

int DecompositionService::RouteLocked(const std::string& graph) {
  const auto it = graph_node_.find(graph);
  if (it != graph_node_.end()) return it->second;
  const int node = next_route_node_;
  next_route_node_ = (next_route_node_ + 1) % num_nodes_;
  graph_node_.emplace(graph, node);
  return node;
}

size_t DecompositionService::TotalQueuedLocked() const {
  size_t total = 0;
  for (const auto& q : node_queues_) total += q.size();
  return total;
}

std::vector<std::shared_ptr<DecompositionService::Task>>
DecompositionService::PopBatchLocked(int home) {
  // Home queue first, then the other nodes in ring order: a worker only
  // crosses nodes when its own queue is dry, so sticky-routed graphs stay
  // on the workers whose arenas already hold them.
  int source = home;
  for (int k = 0; k < num_nodes_; ++k) {
    const int node = (home + k) % num_nodes_;
    if (!node_queues_[static_cast<size_t>(node)].empty()) {
      source = node;
      break;
    }
  }
  if (source == home) {
    ++local_pops_;
  } else {
    ++remote_steals_;
  }
  auto& queue = node_queues_[static_cast<size_t>(source)];

  std::vector<std::shared_ptr<Task>> batch;
  batch.push_back(std::move(queue.front()));
  queue.pop_front();
  // Batch same-graph follow-ons from the same queue: they run on scratch
  // already warm for this exact graph shape, and skip a queue round-trip
  // each. Never take work an idle worker could start right now — batching
  // trades queue overhead for warmth, not parallelism.
  const uint64_t epoch = batch.front()->handle.epoch();
  for (auto it = queue.begin();
       it != queue.end() && TotalQueuedLocked() > waiting_workers_ &&
       batch.size() < options_.max_batch;) {
    if ((*it)->handle.epoch() == epoch) {
      batch.push_back(std::move(*it));
      it = queue.erase(it);
      ++stats_.batched_follow_ons;
    } else {
      ++it;
    }
  }
  return batch;
}

void DecompositionService::WorkerMain(Worker& worker) {
  // Pin before any arena is first-touched, so every buffer this worker's
  // pool grows — and the OpenMP teams its engine runs spawn, which inherit
  // the mask — stays on the assigned node. The thread is service-owned and
  // exits at shutdown, so the mask needs no restore.
  if (pinned_) {
    engine::PinThreadToNode(engine::SystemTopology(), worker.node);
  }
  for (;;) {
    std::vector<std::shared_ptr<Task>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++waiting_workers_;
      queue_not_empty_.wait(
          lock, [this] { return stopping_ || TotalQueuedLocked() > 0; });
      --waiting_workers_;
      if (TotalQueuedLocked() == 0) return;  // stopping and drained
      batch = PopBatchLocked(worker.node);
      queue_not_full_.notify_all();
    }
    for (const auto& task : batch) ExecuteTask(task, worker.pool);
  }
}

size_t DecompositionService::RunQueuedInline() {
  // Serialize inline drains: concurrent callers (e.g. several Execute()s on
  // a zero-worker service) must not share inline_pool_'s workspaces.
  std::lock_guard<std::mutex> inline_lock(inline_mu_);
  size_t executed = 0;
  for (;;) {
    std::vector<std::shared_ptr<Task>> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (TotalQueuedLocked() == 0) break;
      batch = PopBatchLocked(/*home=*/0);
      queue_not_full_.notify_all();
    }
    for (const auto& task : batch) {
      ExecuteTask(task, inline_pool_);
      ++executed;
    }
  }
  return executed;
}

void DecompositionService::ExecuteTask(const std::shared_ptr<Task>& task,
                                       engine::WorkspacePool& pool) {
  // Queue wait: admission stamp → this worker picking the task up. Spans
  // the same interval whether the task then runs, re-hits the cache, or
  // was cancelled while waiting.
  const uint64_t start_ns = obs::TraceRecorder::NowNs();
  if (task->enqueue_ns != 0) {
    const uint64_t wait_ns =
        start_ns >= task->enqueue_ns ? start_ns - task->enqueue_ns : 0;
    queue_wait_->Observe(wait_ns);
    task->request.trace.Emit("queue.wait", task->enqueue_ns, wait_ns);
  }

  Response response;
  response.graph_epoch = task->cache_key.epoch;
  // Double-checked cache: an identical request may have completed between
  // this task's submit-time miss and now.
  if (auto hit = cache_.Get(task->cache_key)) {
    response.payload = std::move(hit);
    response.cache_hit = true;
  } else if (task->control.Cancelled()) {
    response.status = Status::kCancelled;
    response.error = "cancelled before execution";
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.engine_runs;
    }
    response = RunEngine(*task, pool);
    if (response.status == Status::kOk) {
      BridgePeelStats(response.payload->stats);
      cache_.Put(task->cache_key, response.payload);
    }
  }
  FinishTask(task, std::move(response));
}

Response DecompositionService::RunEngine(Task& task,
                                         engine::WorkspacePool& pool) {
  obs::ScopedSpan run_span(task.request.trace, "engine.run");
  Response response;
  response.graph_epoch = task.cache_key.epoch;
  const BipartiteGraph& graph = task.handle.graph();
  const int threads = task.request.threads;

  // Pre-size this worker's scratch to the largest resident graph, not just
  // the request's: whatever graph the next batch targets, the buffers are
  // already big enough — steady-state serving never allocates.
  const GraphRegistry::Shape shape = registry_->MaxShape();
  pool.Prepare(threads,
               std::max(shape.max_vertices, graph.num_vertices()),
               std::max(shape.max_v, graph.num_v()));

  auto payload = std::make_shared<Payload>();
  switch (task.request.algorithm) {
    case Algorithm::kBup:
    case Algorithm::kParb:
    case Algorithm::kReceipt: {
      TipOptions options;
      options.side =
          task.request.kind == RequestKind::kTipV ? Side::kV : Side::kU;
      options.num_threads = threads;
      options.num_partitions = task.request.partitions;
      options.workspace_pool = &pool;
      options.control = &task.control;
      options.trace = task.request.trace;
      TipResult result =
          task.request.algorithm == Algorithm::kBup ? BupDecompose(graph, options)
          : task.request.algorithm == Algorithm::kParb
              ? ParbDecompose(graph, options)
              : ReceiptDecompose(graph, options);
      payload->numbers = std::move(result.tip_numbers);
      payload->stats = result.stats;
      break;
    }
    case Algorithm::kWingBup: {
      WingResult result = WingDecompose(graph, threads, &pool, &task.control,
                                        task.request.trace);
      payload->numbers = std::move(result.wing_numbers);
      payload->stats = result.stats;
      break;
    }
    case Algorithm::kReceiptWing: {
      ReceiptWingOptions options;
      options.num_threads = threads;
      options.num_partitions = task.request.partitions;
      options.workspace_pool = &pool;
      options.control = &task.control;
      options.trace = task.request.trace;
      WingResult result = ReceiptWingDecompose(graph, options);
      payload->numbers = std::move(result.wing_numbers);
      payload->stats = result.stats;
      break;
    }
  }

  if (task.control.Cancelled()) {
    response.status = Status::kCancelled;
    response.error = "cancelled mid-run";
  } else {
    response.payload = std::move(payload);
  }
  return response;
}

void DecompositionService::FinishTask(const std::shared_ptr<Task>& task,
                                      Response response) {
  OutcomeCounter(response.status)->Increment();
  if (task->enqueue_ns != 0) {
    const uint64_t now = obs::TraceRecorder::NowNs();
    if (now > task->enqueue_ns) {
      request_latency_->Observe(now - task->enqueue_ns);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    response.coalesced = task->extra_submitters > 0;
    ++stats_.completed;
    if (response.status == Status::kCancelled) ++stats_.cancelled;
    const auto it = inflight_.find(task->coalesce_key);
    if (it != inflight_.end()) {
      const auto current = it->second.lock();
      if (current == nullptr || current == task) inflight_.erase(it);
    }
  }
  task->promise.set_value(std::move(response));
}

void DecompositionService::Shutdown(bool drain) {
  std::vector<std::shared_ptr<Task>> dropped;
  bool join_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (!drain) {
      for (auto& queue : node_queues_) {
        dropped.insert(dropped.end(), queue.begin(), queue.end());
        queue.clear();
      }
      // Ask executing tasks (still tracked in inflight_) to stop at their
      // next engine check point.
      for (const auto& [key, weak] : inflight_) {
        if (auto task = weak.lock()) task->control.RequestCancel();
      }
    }
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
    queue_not_empty_.notify_all();
    queue_not_full_.notify_all();
  }
  for (const auto& task : dropped) {
    Response response;
    response.status = Status::kCancelled;
    response.error = "dropped by shutdown";
    response.graph_epoch = task->cache_key.epoch;
    FinishTask(task, std::move(response));
  }
  // No background workers: drain what remains here so every outstanding
  // future still resolves.
  if (drain && workers_.empty()) RunQueuedInline();
  if (join_here) {
    for (const auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
}

DecompositionService::Stats DecompositionService::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = stats_;
  }
  stats.cache_hits = cache_.stats().hits;
  return stats;
}

ResultCache::Stats DecompositionService::cache_stats() const {
  return cache_.stats();
}

size_t DecompositionService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalQueuedLocked();
}

DecompositionService::SchedulerStats DecompositionService::scheduler_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats s;
  s.num_nodes = num_nodes_;
  s.pinned = pinned_;
  s.worker_nodes.reserve(workers_.size());
  for (const auto& worker : workers_) s.worker_nodes.push_back(worker->node);
  s.node_queue_depths.reserve(node_queues_.size());
  for (const auto& q : node_queues_) s.node_queue_depths.push_back(q.size());
  s.local_pops = local_pops_;
  s.remote_steals = remote_steals_;
  return s;
}

size_t DecompositionService::IdleWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_workers_;
}

uint64_t DecompositionService::WorkspaceGrowths() const {
  uint64_t total = inline_pool_.TotalGrowths();
  for (const auto& worker : workers_) total += worker->pool.TotalGrowths();
  return total;
}

Status DecompositionService::RegisterGraph(const std::string& name,
                                           BipartiteGraph graph,
                                           uint64_t* epoch_out,
                                           std::string* error) {
  const uint64_t epoch = registry_->AllocateEpoch();
  const Status status =
      RegisterGraphAtEpoch(name, std::move(graph), epoch, error);
  if (status == Status::kOk && epoch_out != nullptr) *epoch_out = epoch;
  return status;
}

Status DecompositionService::RegisterGraphAtEpoch(const std::string& name,
                                                  BipartiteGraph graph,
                                                  uint64_t epoch,
                                                  std::string* error) {
  if (name.empty()) {
    if (error != nullptr) *error = "graph name must not be empty";
    return Status::kBadRequest;
  }
  if (epoch == 0) {
    if (error != nullptr) *error = "epoch must be positive";
    return Status::kBadRequest;
  }
  const GraphHandle previous = registry_->Acquire(name);
  if (durability_ != nullptr) {
    // Journal before install: an acknowledged registration must already be
    // replayable. Failure means nothing was installed — unacknowledged,
    // consistently absent on both sides of a crash.
    std::string log_error;
    if (!durability_->LogRegister(name, epoch, graph.num_u(), graph.num_v(),
                                  graph.ToEdges(), &log_error)) {
      if (error != nullptr) *error = "durability: " + log_error;
      return Status::kShutdown;
    }
  }
  registry_->RegisterAtEpoch(name, std::move(graph), epoch);
  // Results computed on the superseded registration are unreachable via
  // the new epoch; free their cache bytes eagerly. Resident live state
  // keeps its tracked configs and resyncs on its next write, export or
  // snapshot (LiveGraphManager's one registration rule).
  if (previous) cache_.DropEpoch(previous.epoch());
  return Status::kOk;
}

Status DecompositionService::RegisterGraphFile(const std::string& name,
                                               const std::string& path,
                                               uint64_t* epoch_out,
                                               std::string* error) {
  std::string load_error;
  auto loaded = LoadGraphFile(path, &load_error);
  if (!loaded.has_value()) {
    if (error != nullptr) *error = path + ": " + load_error;
    return Status::kBadRequest;
  }
  return RegisterGraph(name, std::move(*loaded), epoch_out, error);
}

}  // namespace receipt::service
