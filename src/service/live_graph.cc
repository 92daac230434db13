#include "service/live_graph.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "tip/receipt_cd.h"
#include "tip/receipt_fd.h"
#include "tip/tip_common.h"
#include "util/timer.h"
#include "wing/receipt_wing.h"

namespace receipt::service {

namespace {

using Edge = BipartiteGraph::Edge;

/// Sentinel in the old→new edge-id map for edges the batch deleted.
constexpr EdgeOffset kNoEdge = ~EdgeOffset{0};

TipOptions TipSealOptions(const LiveConfig& config, int threads,
                          engine::WorkspacePool* pool) {
  TipOptions options;
  options.side = Side::kU;  // the caller orients the graph
  options.num_threads = threads;
  options.num_partitions = static_cast<int>(config.partitions);
  // HUC recounts rewrite every alive support mid-run, which forces the
  // boundary patch log into a full snapshot and invalidates it for the
  // next seal. HUC never changes results (RECEIPT-- equivalence), so seal
  // runs simply pin it off to keep every run's log replayable.
  options.use_huc = false;
  options.workspace_pool = pool;
  return options;
}

ReceiptWingOptions WingSealOptions(const LiveConfig& config, int threads,
                                   engine::WorkspacePool* pool) {
  ReceiptWingOptions options;
  options.num_threads = threads;
  options.num_partitions = static_cast<int>(config.partitions);
  options.workspace_pool = pool;
  return options;
}

uint64_t CountNonZero(std::span<const uint8_t> flags) {
  uint64_t count = 0;
  for (const uint8_t f : flags) count += f != 0;
  return count;
}

std::vector<durability::EdgeOp> ToEdgeOps(std::span<const EdgeUpdate> updates) {
  std::vector<durability::EdgeOp> ops;
  ops.reserve(updates.size());
  for (const EdgeUpdate& update : updates) {
    ops.push_back({update.insert, update.u, update.v});
  }
  return ops;
}

Algorithm AlgorithmFor(RequestKind kind) {
  return kind == RequestKind::kWing ? Algorithm::kReceiptWing
                                    : Algorithm::kReceipt;
}

}  // namespace

LiveGraphManager::LiveGraphManager(GraphRegistry& registry, ResultCache& cache,
                                   const LiveOptions& options,
                                   obs::Observability& obs)
    : registry_(&registry), cache_(&cache), options_(options), obs_(&obs) {
  RegisterInstruments();
}

void LiveGraphManager::RegisterInstruments() {
  obs::MetricsRegistry& m = obs_->metrics;
  dirty_permille_ = m.GetGauge(
      "receipt_live_dirty_permille",
      "Re-peeled fraction of the most recent seal's ranges, in permille.");
  seal_seconds_ = m.GetHistogram("receipt_live_seal_seconds",
                                 "Wall time of live-update seals.");
}

LiveGraphManager::LiveGraphState* LiveGraphManager::GetOrCreateState(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = states_.find(name);
    if (it != states_.end()) return it->second.get();
  }
  // Build outside mu_ (ToEdges on a large graph is not free), then publish.
  GraphHandle handle = registry_->Acquire(name);
  if (!handle) return nullptr;
  auto state = std::make_unique<LiveGraphState>();
  state->name = name;
  state->edges = handle.graph().ToEdges();
  state->handle = std::move(handle);
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = states_.emplace(name, std::move(state));
  return it->second.get();
}

LiveGraphManager::LiveGraphState* LiveGraphManager::FindState(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = states_.find(name);
  return it == states_.end() ? nullptr : it->second.get();
}

Status LiveGraphManager::Track(const std::string& name,
                               const LiveConfig& config, int threads,
                               std::string* error) {
  LiveGraphState* state = GetOrCreateState(name);
  if (state == nullptr) {
    if (error != nullptr) *error = "graph '" + name + "' is not registered";
    return Status::kNotFound;
  }
  std::lock_guard<std::mutex> lock(state->mu);
  return TrackLocked(*state, config, threads, error);
}

bool LiveGraphManager::ResyncLocked(LiveGraphState& state,
                                    std::string* error) {
  GraphHandle current = registry_->Acquire(state.name);
  if (!current) {
    if (error != nullptr) {
      *error = "graph '" + state.name + "' is not registered";
    }
    return false;
  }
  // Identity, not epoch: the state pins its registration, so a different
  // graph object is always a registration this state has not seen — even
  // one installed at the epoch it already holds.
  if (&current.graph() == &state.handle.graph()) return true;
  state.edges = current.graph().ToEdges();
  state.handle = std::move(current);
  state.first_pending_ns = 0;
  for (auto& [config, baseline] : state.tip) baseline.valid = false;
  for (auto& [config, baseline] : state.wing) baseline.valid = false;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.pending_edges -= state.pending.size();
  state.pending.clear();
  return true;
}

bool LiveGraphManager::BufferLocked(LiveGraphState& state,
                                    std::span<const EdgeUpdate> updates,
                                    uint64_t expected_epoch,
                                    std::optional<size_t> expected_pending,
                                    ApplyResult* result) {
  auto reject = [&](Status status, std::string error) {
    result->status = status;
    result->error = std::move(error);
    result->pending = state.pending.size();
    return false;
  };
  if (std::string error; !ResyncLocked(state, &error)) {
    return reject(Status::kNotFound, std::move(error));
  }
  const uint64_t epoch = state.handle.epoch();
  result->epoch = epoch;
  if (expected_epoch != 0 && epoch != expected_epoch) {
    return reject(Status::kBadRequest,
                  "epoch chain mismatch: graph '" + state.name + "' is at " +
                      std::to_string(epoch) + ", the batch expects " +
                      std::to_string(expected_epoch));
  }
  if (expected_pending.has_value() &&
      state.pending.size() != *expected_pending) {
    return reject(Status::kBadRequest,
                  "pending buffer mismatch: graph '" + state.name +
                      "' buffers " + std::to_string(state.pending.size()) +
                      " updates, the batch expects " +
                      std::to_string(*expected_pending));
  }
  const BipartiteGraph& graph = state.handle.graph();
  for (const EdgeUpdate& update : updates) {
    if (update.u >= graph.num_u() || update.v >= graph.num_v()) {
      return reject(Status::kBadRequest,
                    "edge (" + std::to_string(update.u) + ", " +
                        std::to_string(update.v) +
                        ") lies outside the registered shape; re-register "
                        "the graph to grow it");
    }
  }
  if (!updates.empty()) {
    // Write-ahead: the batch must be durable before it is buffered,
    // because buffering is what makes it acknowledged. A failed append
    // rejects the whole batch — the journal has already rolled its tail
    // back, so the on-disk record set stays exactly the acknowledged set.
    if (durability_ != nullptr) {
      std::string log_error;
      if (!durability_->LogEdgeBatch(state.name, epoch, ToEdgeOps(updates),
                                     &log_error)) {
        return reject(Status::kShutdown, "durability: " + log_error);
      }
    }
    if (state.pending.empty()) {
      state.first_pending_ns = obs::TraceRecorder::NowNs();
    }
    state.pending.insert(state.pending.end(), updates.begin(), updates.end());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches_total;
    stats_.updates_total += updates.size();
    stats_.pending_edges += updates.size();
  }
  result->accepted = updates.size();
  result->pending = state.pending.size();
  return true;
}

Status LiveGraphManager::TrackLocked(LiveGraphState& state,
                                     const LiveConfig& config, int threads,
                                     std::string* error) {
  if (config.partitions == 0) {
    if (error != nullptr) *error = "partitions must be positive";
    return Status::kBadRequest;
  }
  if (!ResyncLocked(state, error)) return Status::kNotFound;

  // A from-scratch build is a seal run with nothing to reuse: an invalid
  // baseline and no changed edges.
  threads = threads > 0 ? threads : std::max(1, options_.seal_threads);
  const BipartiteGraph& graph = state.handle.graph();
  SealConfigReport report;
  std::shared_ptr<Payload> payload;
  if (config.kind == RequestKind::kWing) {
    Baseline<EdgeOffset>& baseline = state.wing[config];
    baseline.valid = false;
    payload = SealWing(state, config, baseline, graph, graph, {}, {}, threads,
                       &report);
  } else {
    Baseline<VertexId>& baseline = state.tip[config];
    baseline.valid = false;
    payload =
        SealTip(state, config, baseline, graph, graph, {}, threads, &report);
  }
  // A tracked configuration is always answerable from cache on the sealed
  // epoch — starting with the one its baseline was just built on.
  cache_->Put(CacheKey{state.name, state.handle.epoch(), config.kind,
                       AlgorithmFor(config.kind), config.partitions},
              std::move(payload));
  return Status::kOk;
}

ApplyResult LiveGraphManager::ApplyEdges(const std::string& name,
                                         std::span<const EdgeUpdate> updates,
                                         bool force_seal, int threads,
                                         std::span<const LiveConfig> track) {
  ApplyResult result;
  LiveGraphState* state = GetOrCreateState(name);
  if (state == nullptr) {
    result.status = Status::kNotFound;
    result.error = "graph '" + name + "' is not registered";
    return result;
  }
  std::lock_guard<std::mutex> lock(state->mu);

  for (const LiveConfig& config : track) {
    const Status status = TrackLocked(*state, config, threads, &result.error);
    if (status != Status::kOk) {
      result.status = status;
      return result;
    }
  }
  if (!BufferLocked(*state, updates, /*expected_epoch=*/0,
                    /*expected_pending=*/std::nullopt, &result)) {
    return result;
  }

  bool seal = force_seal;
  if (state->pending.size() >= options_.max_pending_edges) seal = true;
  if (options_.max_staleness_ms > 0 && state->first_pending_ns != 0) {
    const uint64_t age_ns =
        obs::TraceRecorder::NowNs() - state->first_pending_ns;
    if (age_ns / 1'000'000 >= options_.max_staleness_ms) seal = true;
  }
  if (seal && !state->pending.empty()) SealLocked(*state, threads, &result);
  return result;
}

ApplyResult LiveGraphManager::ApplyReplicated(
    const std::string& name, std::span<const EdgeUpdate> updates, bool seal,
    uint64_t expected_epoch, uint64_t sealed_epoch, int threads,
    std::optional<size_t> expected_pending) {
  ApplyResult result;
  if (expected_epoch == 0) {  // 0 would let BufferLocked skip the check
    result.status = Status::kBadRequest;
    result.error = "a replicated batch needs a positive expected epoch";
    return result;
  }
  LiveGraphState* state = GetOrCreateState(name);
  if (state == nullptr) {
    result.status = Status::kNotFound;
    result.error = "graph '" + name + "' is not registered";
    return result;
  }
  std::lock_guard<std::mutex> lock(state->mu);
  if (seal && sealed_epoch <= expected_epoch) {
    result.status = Status::kBadRequest;
    result.error = "sealed epoch " + std::to_string(sealed_epoch) +
                   " must exceed the pre-seal epoch " +
                   std::to_string(expected_epoch);
    result.epoch = state->handle.epoch();
    result.pending = state->pending.size();
    return result;
  }
  if (!BufferLocked(*state, updates, expected_epoch, expected_pending,
                    &result)) {
    return result;
  }
  // No policy seal here — a follower seals exactly when the owner sealed,
  // at the owner's epoch, or the replica chains diverge.
  if (seal) SealLocked(*state, threads, &result, sealed_epoch);
  return result;
}

bool LiveGraphManager::ExportState(const std::string& name,
                                   ExportedState* out) {
  LiveGraphState* state = GetOrCreateState(name);
  if (state == nullptr) return false;
  std::lock_guard<std::mutex> lock(state->mu);
  if (!ResyncLocked(*state, nullptr)) return false;
  out->epoch = state->handle.epoch();
  out->num_u = state->handle.graph().num_u();
  out->num_v = state->handle.graph().num_v();
  out->edges = state->edges;
  out->pending = state->pending;
  return true;
}

void LiveGraphManager::SealLocked(LiveGraphState& state, int threads,
                                  ApplyResult* result, uint64_t pinned_epoch) {
  const WallTimer timer;
  threads = threads > 0 ? threads : std::max(1, options_.seal_threads);
  const GraphHandle old_handle = state.handle;  // keeps the old graph alive
  const BipartiteGraph& old_graph = old_handle.graph();

  // Fold the buffer: the last operation on each (u, v) wins, and only
  // operations that actually change edge presence count as changes.
  std::map<Edge, bool> ops;
  for (const EdgeUpdate& update : state.pending) {
    ops[Edge{update.u, update.v}] = update.insert;
  }

  // One merge pass over the sorted current edge list and the sorted ops
  // produces the new sorted edge list, the changed-edge set, and — because
  // sorted (u, v) rank *is* the wing edge id — the old→new edge-id map.
  std::vector<Edge> new_edges;
  new_edges.reserve(state.edges.size() + ops.size());
  std::vector<Edge> changed;
  std::vector<EdgeOffset> old_to_new(state.edges.size(), kNoEdge);
  auto op = ops.begin();
  for (size_t i = 0; i < state.edges.size(); ++i) {
    const Edge e = state.edges[i];
    while (op != ops.end() && op->first < e) {
      if (op->second) {
        changed.push_back(op->first);
        new_edges.push_back(op->first);
      }
      ++op;
    }
    bool keep = true;
    if (op != ops.end() && op->first == e) {
      if (!op->second) {
        keep = false;
        changed.push_back(e);
      }
      ++op;  // inserting a present edge is a no-op
    }
    if (keep) {
      old_to_new[i] = static_cast<EdgeOffset>(new_edges.size());
      new_edges.push_back(e);
    }
  }
  for (; op != ops.end(); ++op) {
    if (op->second) {
      changed.push_back(op->first);
      new_edges.push_back(op->first);
    }
  }

  BipartiteGraph new_graph = BipartiteGraph::FromEdges(
      old_graph.num_u(), old_graph.num_v(), new_edges);

  // Run every tracked configuration against the new graph — incrementally
  // when its baseline allows — collecting the payloads that will prime the
  // cache under the epoch we are about to install.
  std::vector<std::pair<CacheKey, std::shared_ptr<Payload>>> primes;
  for (auto& [config, baseline] : state.tip) {
    SealConfigReport report;
    auto payload = SealTip(state, config, baseline, old_graph, new_graph,
                           changed, threads, &report);
    primes.emplace_back(CacheKey{state.name, 0, config.kind,
                                 Algorithm::kReceipt, config.partitions},
                        std::move(payload));
    result->reports.push_back(std::move(report));
  }
  for (auto& [config, baseline] : state.wing) {
    SealConfigReport report;
    auto payload = SealWing(state, config, baseline, old_graph, new_graph,
                            changed, old_to_new, threads, &report);
    primes.emplace_back(CacheKey{state.name, 0, config.kind,
                                 Algorithm::kReceiptWing, config.partitions},
                        std::move(payload));
    result->reports.push_back(std::move(report));
  }

  // Install the new epoch. Requests admitted before this line served the
  // old snapshot; everything after resolves to the sealed graph. The epoch
  // transition is journaled *before* the install: a crash in between
  // replays as the same seal pinned to the same epoch, so the recovered
  // chain is numbered identically. A replicated seal is journaled too — it
  // is new history for this process even though the epoch was minted
  // elsewhere. A failed seal append leaves the journal fail-stop broken —
  // the in-memory seal still completes, and the broken journal surfaces on
  // the next batch as an unacknowledged 503.
  const uint64_t old_epoch = old_handle.epoch();
  const uint64_t new_epoch =
      pinned_epoch != 0 ? pinned_epoch : registry_->AllocateEpoch();
  if (durability_ != nullptr) {
    std::string log_error;
    durability_->LogSeal(state.name, old_epoch, new_epoch, &log_error);
  }
  registry_->RegisterAtEpoch(state.name, std::move(new_graph), new_epoch);
  state.handle = registry_->Acquire(state.name);
  cache_->DropEpoch(old_epoch);
  for (auto& [key, payload] : primes) {
    CacheKey keyed = key;
    keyed.epoch = new_epoch;
    cache_->Put(keyed, std::move(payload));
  }

  const size_t folded = state.pending.size();
  state.edges = std::move(new_edges);
  state.pending.clear();
  state.first_pending_ns = 0;

  result->sealed = true;
  result->epoch = new_epoch;
  result->pending = 0;
  result->seal_seconds = timer.Seconds();
  seal_seconds_->ObserveSeconds(result->seal_seconds);

  uint64_t reused = 0;
  uint64_t repeeled = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.seals_total;
    stats_.pending_edges -= folded;
    for (const SealConfigReport& report : result->reports) {
      ++(report.incremental ? stats_.runs_incremental : stats_.runs_full);
      stats_.ranges_reused += report.ranges_reused;
      stats_.ranges_repeeled += report.ranges_repeeled;
      reused += report.ranges_reused;
      repeeled += report.ranges_repeeled;
    }
  }
  if (reused + repeeled > 0) {
    dirty_permille_->Set(repeeled * 1000 / (reused + repeeled));
  }

  // Snapshot-on-seal compacts the journal to (roughly) one snapshot per
  // graph plus the records since. Replayed seals skip it because recovery
  // attaches durability only after replay: it writes nothing until the
  // process is serving again.
  if (durability_ != nullptr && durability_->snapshot_on_seal()) {
    std::string snap_error;
    WriteSnapshotLocked(state, &snap_error);
  }
}

template <typename Id>
std::shared_ptr<Payload> LiveGraphManager::InstallRun(
    const LiveConfig& config, const engine::IncrementalOutcome* outcome,
    const PeelStats& stats, Baseline<Id> next, Baseline<Id>* baseline,
    SealConfigReport* report) {
  const uint64_t subsets = next.sealed.subsets.size();
  report->config = config;
  report->subsets_total = subsets;
  report->incremental = outcome != nullptr && !outcome->fell_back_full;
  if (outcome != nullptr) {
    report->ranges_reused = outcome->ranges_reused;
    report->ranges_repeeled = outcome->ranges_repeeled;
    report->subsets_repeeled = CountNonZero(outcome->subset_dirty);
  } else {
    report->ranges_repeeled = subsets;
    report->subsets_repeeled = subsets;
  }

  next.valid = next.log.valid;
  auto payload = std::make_shared<Payload>();
  payload->numbers = next.numbers;
  payload->stats = stats;
  *baseline = std::move(next);
  return payload;
}

std::shared_ptr<Payload> LiveGraphManager::SealTip(
    LiveGraphState& state, const LiveConfig& config,
    Baseline<VertexId>& baseline, const BipartiteGraph& old_graph,
    const BipartiteGraph& new_graph, std::span<const Edge> changed,
    int threads, SealConfigReport* report) {
  const bool v_side = config.kind == RequestKind::kTipV;
  const VertexId n = v_side ? new_graph.num_v() : new_graph.num_u();
  // Tip entity ids are stable across seals (the shape is fixed), so the
  // baseline seeds the run as-is.
  const bool seeded = baseline.valid && baseline.log.valid &&
                      baseline.old_support.size() == n &&
                      baseline.numbers.size() == n;

  BipartiteGraph swapped;
  const BipartiteGraph* oriented = &new_graph;
  if (v_side) {
    swapped = new_graph.SwappedCopy();
    oriented = &swapped;
  }

  const TipOptions options = TipSealOptions(config, threads, &state.pool);
  PeelStats stats;
  Baseline<VertexId> next;
  engine::IncrementalSeed<VertexId> seed;
  engine::IncrementalOutcome outcome;
  CdIncremental inc;
  inc.record = &next.log;
  inc.initial_support = &next.old_support;
  std::vector<uint8_t> dirty;  // the seed's structural dirty set
  if (seeded) {
    // Structural dirty set: for each changed edge (u, v), the peeled-side
    // endpoint plus every peeled-side vertex that shares the opposite
    // endpoint in either the old or the new graph. Every butterfly the
    // batch created or destroyed has all of its peelable vertices inside
    // this set, which is exactly what the engine's clean-range proof
    // requires.
    dirty.assign(n, 0);
    for (const Edge& e : changed) {
      if (!v_side) {
        dirty[e.u] = 1;
        for (const VertexId w : old_graph.Neighbors(old_graph.VGlobal(e.v))) {
          dirty[w] = 1;
        }
        for (const VertexId w : new_graph.Neighbors(new_graph.VGlobal(e.v))) {
          dirty[w] = 1;
        }
      } else {
        dirty[e.v] = 1;
        for (const VertexId w : old_graph.Neighbors(e.u)) {
          dirty[w - old_graph.num_u()] = 1;
        }
        for (const VertexId w : new_graph.Neighbors(e.u)) {
          dirty[w - new_graph.num_u()] = 1;
        }
      }
    }
    seed.sealed = &baseline.sealed;
    seed.log = &baseline.log;
    seed.old_support = baseline.old_support;
    seed.structural_dirty = dirty;
    seed.dirty_fraction_limit = options_.dirty_fraction_limit;
    inc.seed = &seed;
    inc.outcome = &outcome;
  }
  next.sealed = ReceiptCd(*oriented, options, state.pool, &stats, inc);

  std::span<const uint8_t> only;
  if (seeded) {
    next.numbers = baseline.numbers;  // clean subsets keep sealed numbers
    only = outcome.subset_dirty;
  } else {
    next.numbers.assign(n, 0);
  }
  ReceiptFd(*oriented, next.sealed, options, state.pool,
            std::span<Count>(next.numbers), &stats, only);
  return InstallRun(config, seeded ? &outcome : nullptr, stats,
                    std::move(next), &baseline, report);
}

std::shared_ptr<Payload> LiveGraphManager::SealWing(
    LiveGraphState& state, const LiveConfig& config,
    Baseline<EdgeOffset>& baseline, const BipartiteGraph& old_graph,
    const BipartiteGraph& new_graph, std::span<const Edge> changed,
    std::span<const EdgeOffset> old_to_new, int threads,
    SealConfigReport* report) {
  const uint64_t new_m = new_graph.num_edges();
  const bool seeded = baseline.valid && baseline.log.valid &&
                      baseline.old_support.size() == old_to_new.size() &&
                      baseline.numbers.size() == old_to_new.size();

  const ReceiptWingOptions options =
      WingSealOptions(config, threads, &state.pool);
  PeelStats stats;
  Baseline<EdgeOffset> next;
  engine::IncrementalSeed<EdgeOffset> seed;
  engine::IncrementalOutcome outcome;
  WingIncremental inc;
  inc.record = &next.log;
  inc.initial_support = &next.old_support;
  // What the seed points into, filled only when seeded: the sealed
  // baseline remapped into the new edge-id space plus the dirty sets.
  engine::RangeResult<EdgeOffset> remapped;
  engine::CoarsePatchLog remapped_log;
  std::vector<Count> old_support;
  std::vector<uint8_t> dirty;
  std::vector<uint8_t> force_dirty;
  if (seeded) {
    // Structural dirty set over edges: every edge incident to a U vertex
    // that any changed butterfly can touch — the changed edges' U
    // endpoints plus the old/new U-neighborhoods of their V endpoints.
    // Edge ids of a U vertex are its contiguous U-side CSR slots.
    std::vector<uint8_t> marked_u(new_graph.num_u(), 0);
    for (const Edge& e : changed) {
      marked_u[e.u] = 1;
      for (const VertexId w : old_graph.Neighbors(old_graph.VGlobal(e.v))) {
        marked_u[w] = 1;
      }
      for (const VertexId w : new_graph.Neighbors(new_graph.VGlobal(e.v))) {
        marked_u[w] = 1;
      }
    }
    dirty.assign(new_m, 0);
    const std::span<const EdgeOffset> offsets = new_graph.offsets();
    for (VertexId u = 0; u < new_graph.num_u(); ++u) {
      if (!marked_u[u]) continue;
      for (EdgeOffset e = offsets[u]; e < offsets[u + 1]; ++e) dirty[e] = 1;
    }

    // Remap the sealed baseline into the new edge-id space. Deleted edges
    // drop out of member lists and the patch log; a subset that lost a
    // member no longer matches the sealed peel order, so it is
    // force-dirty. Inserted edges carry the kInvalidCount did-not-exist
    // sentinel.
    remapped.bounds = baseline.sealed.bounds;
    const size_t num_subsets = baseline.sealed.subsets.size();
    remapped.subsets.resize(num_subsets);
    force_dirty.assign(num_subsets, 0);
    for (size_t i = 0; i < num_subsets; ++i) {
      std::vector<EdgeOffset>& out = remapped.subsets[i];
      out.reserve(baseline.sealed.subsets[i].size());
      for (const EdgeOffset old_id : baseline.sealed.subsets[i]) {
        const EdgeOffset mapped = old_to_new[old_id];
        if (mapped == kNoEdge) {
          force_dirty[i] = 1;
        } else {
          out.push_back(mapped);
        }
      }
    }
    remapped.subset_of.assign(new_m, 0);
    for (size_t i = 0; i < num_subsets; ++i) {
      for (const EdgeOffset e : remapped.subsets[i]) {
        remapped.subset_of[e] = static_cast<uint32_t>(i);
      }
    }
    remapped_log.ranges.resize(baseline.log.ranges.size());
    for (size_t i = 0; i < baseline.log.ranges.size(); ++i) {
      for (const auto& [old_id, value] : baseline.log.ranges[i]) {
        const EdgeOffset mapped = old_to_new[old_id];
        if (mapped != kNoEdge) {
          remapped_log.ranges[i].emplace_back(mapped, value);
        }
      }
    }
    // Clean subsets keep their sealed numbers.
    old_support.assign(new_m, kInvalidCount);
    next.numbers.assign(new_m, 0);
    for (size_t i = 0; i < old_to_new.size(); ++i) {
      if (old_to_new[i] != kNoEdge) {
        old_support[old_to_new[i]] = baseline.old_support[i];
        next.numbers[old_to_new[i]] = baseline.numbers[i];
      }
    }
    seed.sealed = &remapped;
    seed.log = &remapped_log;
    seed.old_support = old_support;
    seed.structural_dirty = dirty;
    seed.force_dirty_subset = force_dirty;
    seed.dirty_fraction_limit = options_.dirty_fraction_limit;
    inc.seed = &seed;
    inc.outcome = &outcome;
  } else {
    next.numbers.assign(new_m, 0);
  }
  next.sealed = ReceiptWingCoarse(new_graph, options, &stats, inc);

  std::span<const uint8_t> only;
  if (seeded) only = outcome.subset_dirty;
  ReceiptWingFine(new_graph, next.sealed, options,
                  std::span<Count>(next.numbers), &stats, only);
  return InstallRun(config, seeded ? &outcome : nullptr, stats,
                    std::move(next), &baseline, report);
}

void LiveGraphManager::SetDurability(
    durability::DurabilityManager* durability) {
  durability_ = durability;
}

bool LiveGraphManager::WriteSnapshotLocked(LiveGraphState& state,
                                           std::string* error) {
  durability::SnapshotData data;
  data.graph = state.name;
  data.epoch = state.handle.epoch();
  data.num_u = state.handle.graph().num_u();
  data.num_v = state.handle.graph().num_v();
  data.edges = state.edges;
  data.pending = ToEdgeOps(state.pending);
  auto write_configs = [&data](const auto& baselines) {
    for (const auto& [config, baseline] : baselines) {
      durability::SnapshotConfig out;
      out.kind = static_cast<uint8_t>(config.kind);
      out.partitions = config.partitions;
      out.numbers = baseline.numbers;
      out.bounds = baseline.sealed.bounds;
      out.old_support = baseline.old_support;
      data.configs.push_back(std::move(out));
    }
  };
  write_configs(state.tip);
  write_configs(state.wing);
  return durability_->WriteSnapshot(&data, error);
}

Status LiveGraphManager::RestoreSnapshot(const durability::SnapshotData& data,
                                         std::string* error) {
  for (const Edge& e : data.edges) {
    if (e.u >= data.num_u || e.v >= data.num_v) {
      if (error != nullptr) {
        *error = "snapshot for '" + data.graph + "' has out-of-shape edges";
      }
      return Status::kBadRequest;
    }
  }
  registry_->RegisterAtEpoch(
      data.graph,
      BipartiteGraph::FromEdges(data.num_u, data.num_v,
                                {data.edges.begin(), data.edges.end()}),
      data.epoch);

  auto state = std::make_unique<LiveGraphState>();
  state->name = data.graph;
  state->handle = registry_->Acquire(data.graph);
  state->edges = data.edges;
  std::sort(state->edges.begin(), state->edges.end());
  state->pending.reserve(data.pending.size());
  for (const auto& op : data.pending) {
    state->pending.push_back({op.insert, op.u, op.v});
  }
  if (!state->pending.empty()) {
    state->first_pending_ns = obs::TraceRecorder::NowNs();
  }

  for (const auto& config : data.configs) {
    if (config.kind > static_cast<uint8_t>(RequestKind::kWing) ||
        config.partitions == 0) {
      if (error != nullptr) {
        *error = "snapshot for '" + data.graph + "' has an invalid config";
      }
      return Status::kBadRequest;
    }
    LiveConfig live{static_cast<RequestKind>(config.kind), config.partitions};
    // Restored baselines carry the sealed numbers/bounds/supports but not
    // the patch log, so they cannot seed an incremental seal: valid stays
    // false and the next seal recomputes fully — bit-identical either way.
    auto restore = [&](auto& baselines) {
      auto& baseline = baselines[live];
      baseline.numbers = config.numbers;
      baseline.sealed.bounds = config.bounds;
      baseline.old_support = config.old_support;
      baseline.valid = false;
    };
    if (live.kind == RequestKind::kWing) {
      restore(state->wing);
    } else {
      restore(state->tip);
    }
    // The sealed numbers are servable immediately: prime the cache under
    // the restored epoch, exactly as the pre-crash seal did.
    auto payload = std::make_shared<Payload>();
    payload->numbers = config.numbers;
    cache_->Put(CacheKey{data.graph, data.epoch, live.kind,
                         AlgorithmFor(live.kind), live.partitions},
                std::move(payload));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = states_.find(data.graph);
    if (it != states_.end()) {
      stats_.pending_edges -= it->second->pending.size();
    }
    stats_.pending_edges += state->pending.size();
    states_[data.graph] = std::move(state);
  }
  return Status::kOk;
}

bool LiveGraphManager::DropState(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = states_.find(name);
  if (it == states_.end()) return false;
  stats_.pending_edges -= it->second->pending.size();
  states_.erase(it);
  return true;
}

Status LiveGraphManager::SnapshotNow(const std::string& name,
                                     std::string* error) {
  if (durability_ == nullptr) {
    if (error != nullptr) *error = "durability is not enabled (no data dir)";
    return Status::kBadRequest;
  }
  LiveGraphState* state = GetOrCreateState(name);
  if (state == nullptr) {
    if (error != nullptr) *error = "graph '" + name + "' is not registered";
    return Status::kNotFound;
  }
  std::lock_guard<std::mutex> lock(state->mu);
  if (!ResyncLocked(*state, error)) return Status::kNotFound;
  return WriteSnapshotLocked(*state, error) ? Status::kOk : Status::kShutdown;
}

size_t LiveGraphManager::PendingEdges(const std::string& name) {
  LiveGraphState* state = FindState(name);
  if (state == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state->mu);
  return ResyncLocked(*state, nullptr) ? state->pending.size() : 0;
}

LiveGraphManager::Stats LiveGraphManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace receipt::service
