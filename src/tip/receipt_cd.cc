#include "tip/receipt_cd.h"

#include <algorithm>
#include <vector>

#include "engine/counting.h"
#include "engine/graph_maintenance.h"
#include "engine/peel_engine.h"
#include "graph/dynamic_graph.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace receipt {

CdResult ReceiptCd(const BipartiteGraph& graph, const TipOptions& options,
                   PeelStats* stats) {
  engine::WorkspacePool pool;
  return ReceiptCd(graph, options, pool, stats);
}

CdResult ReceiptCd(const BipartiteGraph& graph, const TipOptions& options,
                   engine::WorkspacePool& pool, PeelStats* stats) {
  return ReceiptCd(graph, options, pool, stats, CdIncremental{});
}

CdResult ReceiptCd(const BipartiteGraph& graph, const TipOptions& options,
                   engine::WorkspacePool& pool, PeelStats* stats,
                   const CdIncremental& inc) {
  const int num_threads = options.num_threads;
  const VertexId num_u = graph.num_u();
  const uint32_t max_partitions =
      static_cast<uint32_t>(std::max(1, options.num_partitions));

  // Rank relabel and the rank-sorted peelable view, traced apart from
  // counting so engine.count covers wedge aggregation alone.
  const uint64_t view_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  DynamicGraph live(graph, graph.DegreeDescendingRanks(), num_threads);
  pool.Prepare(std::max(1, num_threads), graph.num_vertices());
  options.trace.EmitSince("engine.view", view_start_ns, graph.num_edges());

  // Support initialization via pvBcnt (Alg. 3 line 2).
  const uint64_t count_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  WallTimer count_timer;
  std::vector<Count> support(graph.num_vertices(), 0);
  stats->wedges_counting +=
      engine::CountVertexButterflies(live, pool, num_threads, support);
  stats->seconds_counting = count_timer.Seconds();
  options.trace.EmitSince("engine.count", count_start_ns,
                          stats->wedges_counting);
  if (inc.initial_support != nullptr) {
    inc.initial_support->assign(support.begin(), support.begin() + num_u);
  }

  const uint64_t cd_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  const WallTimer cd_timer;

  // Static per-vertex wedge counts w[u] — the workload proxy for range
  // determination and the C_peel cost model (§3.1, §4.1).
  std::vector<Count> wedge_static(num_u);
  ParallelFor(num_u, num_threads, [&](size_t u) {
    wedge_static[u] = graph.WedgeCount(static_cast<VertexId>(u));
  });

  engine::GraphMaintenance maintenance(live, options.use_huc, options.use_dgm,
                                       graph.num_edges(), num_threads);
  engine::TipPeelGraph peel_graph(live, support);
  engine::RangeDecomposer<engine::TipPeelGraph> decomposer(
      peel_graph, wedge_static,
      engine::MakeCoarseOptions(options, max_partitions), pool, &maintenance,
      options.control);
  decomposer.set_patch_log(inc.record);
  CdResult cd = inc.seed != nullptr
                    ? decomposer.RunIncremental(*inc.seed, inc.outcome, stats)
                    : decomposer.Run(stats);

  stats->dgm_compactions += maintenance.compactions();
  stats->seconds_cd = cd_timer.Seconds();
  options.trace.EmitSince("engine.cd", cd_start_ns, cd.subsets.size());
  return cd;
}

}  // namespace receipt
