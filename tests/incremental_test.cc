// The incremental-serving churn suite: randomized insert/delete batches
// folded through LiveGraphManager seals must leave every tracked
// configuration bit-identical to a from-scratch decomposition of the final
// graph — across tip-U / tip-V / wing, thread counts, and the
// dirty-fraction threshold sweep (both the reuse path and the full-recompute
// fallback produce the same bytes). Plus targeted coverage of the seal
// policy knobs, cache priming/epoch dropping, and shape validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "obs/observability.h"
#include "service/graph_registry.h"
#include "service/live_graph.h"
#include "service/result_cache.h"
#include "tip/receipt.h"
#include "wing/receipt_wing.h"

namespace receipt::service {
namespace {

Algorithm AlgorithmFor(RequestKind kind) {
  return kind == RequestKind::kWing ? Algorithm::kReceiptWing
                                    : Algorithm::kReceipt;
}

/// From-scratch decomposition of `graph` under `config` — the ground truth
/// every sealed result is compared against.
std::vector<Count> DirectNumbers(const BipartiteGraph& graph,
                                 const LiveConfig& config, int threads) {
  if (config.kind == RequestKind::kWing) {
    ReceiptWingOptions options;
    options.num_threads = threads;
    options.num_partitions = static_cast<int>(config.partitions);
    return ReceiptWingDecompose(graph, options).wing_numbers;
  }
  TipOptions options;
  options.side = config.kind == RequestKind::kTipV ? Side::kV : Side::kU;
  options.num_threads = threads;
  options.num_partitions = static_cast<int>(config.partitions);
  return ReceiptDecompose(graph, options).tip_numbers;
}

/// One manager + registry + cache bundle, seeded with a ChungLu graph.
struct LiveFixture {
  explicit LiveFixture(const LiveOptions& options, uint64_t seed = 11,
                       VertexId nu = 150, VertexId nv = 120,
                       uint64_t edges = 700)
      : cache(size_t{64} << 20), live(registry, cache, options, obs) {
    registry.Register("g", ChungLuBipartite(nu, nv, edges, 0.6, 0.6, seed));
  }

  GraphRegistry registry;
  ResultCache cache;
  obs::Observability obs;
  LiveGraphManager live;
};

/// Draws a random batch against the current graph: half deletions of
/// existing edges, half inserts of random (often absent) pairs.
std::vector<EdgeUpdate> RandomBatch(const BipartiteGraph& graph,
                                    size_t batch_size, std::mt19937_64* rng) {
  const std::vector<BipartiteGraph::Edge> edges = graph.ToEdges();
  std::vector<EdgeUpdate> updates;
  updates.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    EdgeUpdate update;
    if ((*rng)() % 2 == 0 && !edges.empty()) {
      const BipartiteGraph::Edge& edge = edges[(*rng)() % edges.size()];
      update = {/*insert=*/false, edge.u, edge.v};
    } else {
      update = {/*insert=*/true,
                static_cast<VertexId>((*rng)() % graph.num_u()),
                static_cast<VertexId>((*rng)() % graph.num_v())};
    }
    updates.push_back(update);
  }
  return updates;
}

/// The core property: seal `batches` random batches and require each sealed
/// result (served from the primed cache) to be bit-identical to the direct
/// driver on the post-batch graph.
void RunChurn(const LiveConfig& config, int threads, double dirty_limit,
              uint64_t seed, int batches = 3, size_t batch_size = 24) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;  // seal only when forced
  options.dirty_fraction_limit = dirty_limit;
  LiveFixture fx(options, seed);
  std::string error;
  ASSERT_EQ(fx.live.Track("g", config, threads, &error), Status::kOk)
      << error;

  std::mt19937_64 rng(seed * 7919 + 17);
  for (int b = 0; b < batches; ++b) {
    std::vector<EdgeUpdate> updates;
    {
      const GraphHandle before = fx.registry.Acquire("g");
      updates = RandomBatch(before.graph(), batch_size, &rng);
    }
    const ApplyResult result =
        fx.live.ApplyEdges("g", updates, /*force_seal=*/true, threads);
    ASSERT_EQ(result.status, Status::kOk) << result.error;
    ASSERT_TRUE(result.sealed);
    ASSERT_EQ(result.reports.size(), 1u);

    const GraphHandle after = fx.registry.Acquire("g");
    ASSERT_EQ(after.epoch(), result.epoch);
    const auto payload = fx.cache.Get(CacheKey{
        "g", result.epoch, config.kind, AlgorithmFor(config.kind),
        config.partitions});
    ASSERT_NE(payload, nullptr) << "seal did not prime the cache";
    EXPECT_EQ(payload->numbers,
              DirectNumbers(after.graph(), config, threads))
        << "batch " << b << " diverged (threads=" << threads
        << " dirty_limit=" << dirty_limit << ")";
  }
  const LiveGraphManager::Stats stats = fx.live.stats();
  EXPECT_EQ(stats.seals_total, static_cast<uint64_t>(batches));
  EXPECT_EQ(stats.runs_incremental + stats.runs_full,
            static_cast<uint64_t>(batches));
}

int HardwareThreads() {
  return std::max(2u, std::thread::hardware_concurrency());
}

TEST(IncrementalChurnTest, TipUAcrossThreadCounts) {
  for (const int threads : {1, 4, HardwareThreads()}) {
    RunChurn({RequestKind::kTipU, 6}, threads, 0.5, 101);
  }
}

TEST(IncrementalChurnTest, TipVAcrossThreadCounts) {
  for (const int threads : {1, 4, HardwareThreads()}) {
    RunChurn({RequestKind::kTipV, 6}, threads, 0.5, 202);
  }
}

TEST(IncrementalChurnTest, WingAcrossThreadCounts) {
  for (const int threads : {1, 4, HardwareThreads()}) {
    RunChurn({RequestKind::kWing, 8}, threads, 0.5, 303);
  }
}

// The threshold sweep: limit 0 forces the full-recompute fallback on any
// dirty range, limit 1 never falls back — the bytes must not care.
TEST(IncrementalChurnTest, DirtyFractionSweepIsResultNeutral) {
  for (const double limit : {0.0, 0.25, 1.0}) {
    RunChurn({RequestKind::kTipU, 6}, 2, limit, 404);
    RunChurn({RequestKind::kWing, 8}, 2, limit, 505);
  }
}

// A tiny batch on a bigger graph must actually take the incremental path
// and reuse sealed ranges — guards against the suite silently passing
// because every seal fell back to a full recompute.
TEST(IncrementalChurnTest, SmallBatchesReuseSealedRanges) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;
  options.dirty_fraction_limit = 1.0;  // never fall back
  LiveFixture fx(options, /*seed=*/7, /*nu=*/400, /*nv=*/300,
                 /*edges=*/2000);
  const LiveConfig config{RequestKind::kTipU, 10};
  std::string error;
  ASSERT_EQ(fx.live.Track("g", config, 2, &error), Status::kOk) << error;

  // Delete one existing edge: a localized change.
  const GraphHandle handle = fx.registry.Acquire("g");
  const BipartiteGraph::Edge victim = handle.graph().ToEdges()[42];
  const std::vector<EdgeUpdate> batch = {{false, victim.u, victim.v}};
  const ApplyResult result =
      fx.live.ApplyEdges("g", batch, /*force_seal=*/true, 2);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  ASSERT_TRUE(result.sealed);
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_TRUE(result.reports[0].incremental);
  EXPECT_GT(result.reports[0].ranges_reused, 0u);
  EXPECT_LT(result.reports[0].subsets_repeeled,
            result.reports[0].subsets_total);

  const GraphHandle after = fx.registry.Acquire("g");
  const auto payload = fx.cache.Get(CacheKey{
      "g", result.epoch, config.kind, Algorithm::kReceipt,
      config.partitions});
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->numbers, DirectNumbers(after.graph(), config, 2));
}

// One seal updates every tracked configuration of the graph.
TEST(IncrementalChurnTest, MultiConfigSealKeepsAllConfigsIdentical) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;
  LiveFixture fx(options, /*seed=*/31);
  const std::vector<LiveConfig> configs = {{RequestKind::kTipU, 6},
                                           {RequestKind::kTipV, 5},
                                           {RequestKind::kWing, 8}};
  for (const LiveConfig& config : configs) {
    std::string error;
    ASSERT_EQ(fx.live.Track("g", config, 2, &error), Status::kOk) << error;
  }

  std::mt19937_64 rng(99);
  std::vector<EdgeUpdate> updates;
  {
    const GraphHandle before = fx.registry.Acquire("g");
    updates = RandomBatch(before.graph(), 20, &rng);
  }
  const ApplyResult result =
      fx.live.ApplyEdges("g", updates, /*force_seal=*/true, 2);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  ASSERT_EQ(result.reports.size(), configs.size());

  const GraphHandle after = fx.registry.Acquire("g");
  for (const LiveConfig& config : configs) {
    const auto payload = fx.cache.Get(CacheKey{
        "g", result.epoch, config.kind, AlgorithmFor(config.kind),
        config.partitions});
    ASSERT_NE(payload, nullptr) << RequestKindName(config.kind);
    EXPECT_EQ(payload->numbers, DirectNumbers(after.graph(), config, 2))
        << RequestKindName(config.kind);
  }
}

TEST(IncrementalPolicyTest, BatchesBufferUntilThresholdThenSeal) {
  LiveOptions options;
  options.max_pending_edges = 5;
  LiveFixture fx(options);
  const LiveConfig config{RequestKind::kTipU, 6};
  std::string error;
  ASSERT_EQ(fx.live.Track("g", config, 1, &error), Status::kOk) << error;
  const uint64_t epoch_before = fx.registry.Acquire("g").epoch();

  const std::vector<EdgeUpdate> three = {{true, 0, 0}, {true, 1, 1},
                                         {true, 2, 2}};
  ApplyResult result =
      fx.live.ApplyEdges("g", three, /*force_seal=*/false, 1);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  EXPECT_FALSE(result.sealed);
  EXPECT_EQ(result.pending, 3u);
  EXPECT_EQ(fx.live.PendingEdges("g"), 3u);
  EXPECT_EQ(fx.registry.Acquire("g").epoch(), epoch_before);

  // Two more crosses max_pending_edges: the batch seals and the epoch bumps.
  const std::vector<EdgeUpdate> two = {{true, 3, 3}, {true, 4, 4}};
  result = fx.live.ApplyEdges("g", two, /*force_seal=*/false, 1);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  EXPECT_TRUE(result.sealed);
  EXPECT_EQ(result.pending, 0u);
  EXPECT_EQ(fx.live.PendingEdges("g"), 0u);
  EXPECT_GT(result.epoch, epoch_before);
}

TEST(IncrementalPolicyTest, OutOfShapeUpdatesRejectTheWholeBatch) {
  LiveOptions options;
  LiveFixture fx(options);
  const std::vector<EdgeUpdate> batch = {{true, 1, 1}, {true, 100000, 0}};
  const ApplyResult result =
      fx.live.ApplyEdges("g", batch, /*force_seal=*/false, 1);
  EXPECT_EQ(result.status, Status::kBadRequest);
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_EQ(fx.live.PendingEdges("g"), 0u);  // nothing buffered
}

TEST(IncrementalPolicyTest, UnknownGraphIsNotFound) {
  LiveOptions options;
  LiveFixture fx(options);
  std::string error;
  EXPECT_EQ(fx.live.Track("nope", {RequestKind::kTipU, 6}, 1, &error),
            Status::kNotFound);
  const std::vector<EdgeUpdate> batch = {{true, 0, 0}};
  EXPECT_EQ(fx.live.ApplyEdges("nope", batch, true, 1).status,
            Status::kNotFound);
}

// ---------------------------------------------------------------------------
// Re-registration: every write path resyncs against the registry
// ---------------------------------------------------------------------------

std::vector<BipartiteGraph::Edge> SortedEdges(const BipartiteGraph& graph) {
  std::vector<BipartiteGraph::Edge> edges = graph.ToEdges();
  std::sort(edges.begin(), edges.end());
  return edges;
}

// An untracked seal after a re-registration must fold the batch into the
// re-registered graph, not into the superseded one the live state last
// saw; the tracked config survives with its next seal a full run.
TEST(ReRegistrationTest, UntrackedSealFoldsIntoTheReRegisteredGraph) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;
  LiveFixture fx(options);
  const LiveConfig config{RequestKind::kTipU, 6};
  std::string error;
  ASSERT_EQ(fx.live.Track("g", config, 2, &error), Status::kOk) << error;
  const std::vector<EdgeUpdate> first = {{true, 0, 0}};
  ASSERT_TRUE(fx.live.ApplyEdges("g", first, /*force_seal=*/true, 2).sealed);
  // Buffered against the old registration: superseded with it.
  const std::vector<EdgeUpdate> stale = {{true, 5, 5}, {true, 6, 6}};
  ASSERT_EQ(fx.live.ApplyEdges("g", stale, false, 2).status, Status::kOk);

  const BipartiteGraph replacement =
      ChungLuBipartite(150, 120, 300, 0.6, 0.6, 77);
  const uint64_t registered = fx.registry.Register("g", replacement);
  const std::vector<EdgeUpdate> batch = {{true, 1, 2}, {true, 3, 4}};
  const ApplyResult result =
      fx.live.ApplyEdges("g", batch, /*force_seal=*/true, 2);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  ASSERT_TRUE(result.sealed);
  EXPECT_GT(result.epoch, registered);

  std::vector<BipartiteGraph::Edge> expected = SortedEdges(replacement);
  for (const EdgeUpdate& update : batch) {
    expected.push_back({update.u, update.v});
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  const GraphHandle after = fx.registry.Acquire("g");
  EXPECT_EQ(SortedEdges(after.graph()), expected);

  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_FALSE(result.reports[0].incremental);
  const auto payload = fx.cache.Get(CacheKey{
      "g", result.epoch, config.kind, Algorithm::kReceipt, config.partitions});
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->numbers, DirectNumbers(after.graph(), config, 2));
}

TEST(ReRegistrationTest, ExportStateReportsTheReRegisteredGraph) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;
  LiveFixture fx(options);
  const std::vector<EdgeUpdate> pending = {{true, 5, 5}};
  ASSERT_EQ(fx.live.ApplyEdges("g", pending, false, 1).status, Status::kOk);

  const BipartiteGraph replacement =
      ChungLuBipartite(90, 80, 250, 0.6, 0.6, 78);
  const uint64_t registered = fx.registry.Register("g", replacement);
  LiveGraphManager::ExportedState exported;
  ASSERT_TRUE(fx.live.ExportState("g", &exported));
  EXPECT_EQ(exported.epoch, registered);
  EXPECT_EQ(exported.num_u, replacement.num_u());
  EXPECT_EQ(exported.num_v, replacement.num_v());
  EXPECT_EQ(exported.edges, SortedEdges(replacement));
  EXPECT_TRUE(exported.pending.empty());
  EXPECT_EQ(fx.live.PendingEdges("g"), 0u);
  EXPECT_EQ(fx.live.stats().pending_edges, 0u);
}

TEST(ResultCacheTest, DropEpochRemovesExactlyThatEpoch) {
  ResultCache cache(size_t{1} << 20);
  auto payload = std::make_shared<Payload>();
  payload->numbers = {1, 2, 3};
  const CacheKey old_key{"g", 1, RequestKind::kTipU, Algorithm::kReceipt, 6};
  const CacheKey old_key2{"g", 1, RequestKind::kWing,
                          Algorithm::kReceiptWing, 8};
  const CacheKey live_key{"g", 2, RequestKind::kTipU, Algorithm::kReceipt, 6};
  cache.Put(old_key, payload);
  cache.Put(old_key2, payload);
  cache.Put(live_key, payload);

  EXPECT_EQ(cache.DropEpoch(1), 2u);
  EXPECT_EQ(cache.Get(old_key), nullptr);
  EXPECT_EQ(cache.Get(old_key2), nullptr);
  EXPECT_NE(cache.Get(live_key), nullptr);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.epoch_drops, 2u);
  EXPECT_EQ(stats.entries, 1u);
  // Dropping an epoch with no entries is a harmless no-op.
  EXPECT_EQ(cache.DropEpoch(1), 0u);
}

}  // namespace
}  // namespace receipt::service
