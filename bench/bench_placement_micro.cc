// Placement micro-benchmark: cost-model-guided partition placement (LPT
// over the coarse histogram's predicted per-range peel costs) against the
// round-robin baseline, on a skewed (Chung–Lu) and a uniform generator
// graph, with the FD scheduler forced onto virtual nodes so the comparison
// runs on any machine — single-node CI included.
//
// Two layers are measured:
//
//  * Cost-model level: the CD run's predicted_costs are assigned to nodes
//    by AssignLpt and AssignRoundRobin directly; predicted makespan (max
//    per-node cost sum) and migration pressure (Σ overload above the
//    balanced average — the deterministic cross-node-traffic proxy) are
//    compared plan against plan.
//  * End-to-end: full ReceiptDecompose runs with fd_assignment = kCostLpt
//    vs kRoundRobin on the same forced node count; measured makespan is
//    stats.makespan_measured — wedges actually traversed per *assigned*
//    node, a deterministic work-unit gauge independent of stealing order.
//
// Exits non-zero unless, on the skewed generator with multiple forced
// nodes:
//  * LPT's predicted makespan is strictly below round-robin's, at both the
//    plan level and as reported by the end-to-end runs,
//  * LPT's measured makespan is strictly below round-robin's,
//  * LPT's migration pressure does not exceed round-robin's, and
//  * every configuration (assignment rule × pinning × auto topology) is
//    bit-identical: same tip numbers, bounds, subsets, subset_of.
// The uniform generator and the auto-topology (single-node fallback) runs
// are reported but not gated — on one node every assignment is the same
// assignment. `--json <path>` emits the records as a BENCH_placement_micro
// trajectory file. Plain executable (no google-benchmark): deterministic
// single-pass runs are what the counters need.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/cost_model.h"
#include "tip/receipt_cd.h"

namespace receipt::bench {
namespace {

/// Virtual node count forced onto the FD scheduler: enough bins that
/// round-robin's order-blind dealing visibly misbalances the skewed range
/// costs, small enough that every bin still receives several partitions.
constexpr int kForcedNodes = 4;

TipOptions BaseOptions() {
  TipOptions options;
  options.num_threads = DefaultThreads();
  options.num_partitions = DefaultPartitions();
  return options;
}

struct EndToEnd {
  const char* name;
  engine::PlacementAssign assign;
  int nodes;  // 0 = auto topology (single-node fallback on most CI)
  bool pin;
};

bool SameResults(const TipResult& a, const TipResult& b) {
  return a.tip_numbers == b.tip_numbers && a.range_bounds == b.range_bounds &&
         a.subset_of == b.subset_of && a.subsets == b.subsets;
}

bool RunGraph(const char* graph_name, const BipartiteGraph& graph, bool gate,
              std::vector<JsonRecord>& records) {
  bool ok = true;

  // -- cost-model level: plans straight from the CD prediction -------------
  TipOptions cd_options = BaseOptions();
  PeelStats cd_stats;
  const CdResult cd = ReceiptCd(graph, cd_options, &cd_stats);
  // With no more partitions than nodes every assignment rule produces the
  // same one-partition-per-node plan, so a strict improvement is impossible
  // by construction (e.g. a RECEIPT_BENCH_PARTITIONS=1 probe). Report, but
  // do not gate.
  if (gate && cd.predicted_costs.size() <= kForcedNodes) {
    std::printf(
        "%-8s only %zu partitions on %d nodes — placement cannot differ; "
        "gate skipped\n",
        graph_name, cd.predicted_costs.size(), kForcedNodes);
    gate = false;
  }
  const engine::PlacementPlan lpt_plan =
      engine::AssignLpt(cd.predicted_costs, kForcedNodes);
  const engine::PlacementPlan rr_plan =
      engine::AssignRoundRobin(cd.predicted_costs, kForcedNodes);
  std::printf(
      "%-8s plan   lpt: makespan=%-10llu pressure=%-8llu   rr: "
      "makespan=%-10llu pressure=%-8llu\n",
      graph_name, static_cast<unsigned long long>(lpt_plan.Makespan()),
      static_cast<unsigned long long>(lpt_plan.MigrationPressure()),
      static_cast<unsigned long long>(rr_plan.Makespan()),
      static_cast<unsigned long long>(rr_plan.MigrationPressure()));
  JsonRecord plan_record;
  plan_record.name = std::string(graph_name) + "/plan";
  plan_record.counters.emplace_back("num_subsets", cd.subsets.size());
  plan_record.counters.emplace_back("lpt_makespan", lpt_plan.Makespan());
  plan_record.counters.emplace_back("rr_makespan", rr_plan.Makespan());
  plan_record.counters.emplace_back("lpt_pressure",
                                    lpt_plan.MigrationPressure());
  plan_record.counters.emplace_back("rr_pressure",
                                    rr_plan.MigrationPressure());
  records.push_back(std::move(plan_record));

  if (gate && lpt_plan.Makespan() >= rr_plan.Makespan()) {
    std::printf(
        "!! %s: LPT predicted makespan %llu, expected strictly below "
        "round-robin's %llu\n",
        graph_name, static_cast<unsigned long long>(lpt_plan.Makespan()),
        static_cast<unsigned long long>(rr_plan.Makespan()));
    ok = false;
  }
  if (gate && lpt_plan.MigrationPressure() > rr_plan.MigrationPressure()) {
    std::printf(
        "!! %s: LPT migration pressure %llu exceeds round-robin's %llu\n",
        graph_name,
        static_cast<unsigned long long>(lpt_plan.MigrationPressure()),
        static_cast<unsigned long long>(rr_plan.MigrationPressure()));
    ok = false;
  }

  // -- end to end: the FD scheduler under each placement ------------------
  const EndToEnd configs[] = {
      {"lpt", engine::PlacementAssign::kCostLpt, kForcedNodes, false},
      {"rr", engine::PlacementAssign::kRoundRobin, kForcedNodes, false},
      {"lpt-pin", engine::PlacementAssign::kCostLpt, kForcedNodes, true},
      {"auto", engine::PlacementAssign::kCostLpt, 0, false},
  };
  std::vector<TipResult> results;
  for (const EndToEnd& config : configs) {
    TipOptions options = BaseOptions();
    options.fd_assignment = config.assign;
    options.placement_nodes = config.nodes;
    options.pin_numa = config.pin;
    TipResult r = ReceiptDecompose(graph, options);
    std::printf(
        "%-8s %-8s nodes=%-2llu makespan: predicted=%-10llu "
        "measured=%-10llu local=%-4llu steals=%-4llu fd=%.3fs\n",
        graph_name, config.name,
        static_cast<unsigned long long>(r.stats.placement_nodes),
        static_cast<unsigned long long>(r.stats.makespan_predicted),
        static_cast<unsigned long long>(r.stats.makespan_measured),
        static_cast<unsigned long long>(r.stats.placement_local_pops),
        static_cast<unsigned long long>(r.stats.placement_remote_steals),
        r.stats.seconds_fd);
    JsonRecord record;
    record.name = std::string(graph_name) + "/" + config.name;
    AppendPeelStats(r.stats, &record);
    records.push_back(std::move(record));
    results.push_back(std::move(r));
  }
  const TipResult& lpt = results[0];
  const TipResult& rr = results[1];

  for (size_t i = 1; i < results.size(); ++i) {
    if (!SameResults(results[0], results[i])) {
      std::printf(
          "!! %s: configuration '%s' is not bit-identical to '%s'\n",
          graph_name, configs[i].name, configs[0].name);
      ok = false;
    }
  }
  if (gate) {
    if (lpt.stats.makespan_predicted >= rr.stats.makespan_predicted) {
      std::printf(
          "!! %s: end-to-end LPT predicted makespan %llu, expected "
          "strictly below round-robin's %llu\n",
          graph_name,
          static_cast<unsigned long long>(lpt.stats.makespan_predicted),
          static_cast<unsigned long long>(rr.stats.makespan_predicted));
      ok = false;
    }
    if (lpt.stats.makespan_measured >= rr.stats.makespan_measured) {
      std::printf(
          "!! %s: LPT measured makespan %llu wedge-units, expected "
          "strictly below round-robin's %llu\n",
          graph_name,
          static_cast<unsigned long long>(lpt.stats.makespan_measured),
          static_cast<unsigned long long>(rr.stats.makespan_measured));
      ok = false;
    }
  }
  return ok;
}

int Main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  PrintHeader(
      "placement micro-bench — cost-model-guided LPT node assignment vs "
      "round-robin, bit-identical by construction");

  // Skewed: heavy-tailed degrees concentrate predicted cost in a few
  // ranges — exactly where order-blind round-robin piles heavy partitions
  // onto one node. Uniform: flat costs, round-robin's best case, reported
  // but not gated.
  std::vector<std::pair<const char*, BipartiteGraph>> graphs;
  graphs.emplace_back("skewed",
                      ChungLuBipartite(2500, 1800, 22000, 0.85, 0.85, 1001));
  graphs.emplace_back("uniform", RandomBipartite(2500, 1800, 22000, 1003));

  std::vector<JsonRecord> records;
  bool ok = true;
  for (const auto& [name, graph] : graphs) {
    const bool gate = std::string(name) == "skewed";
    ok = RunGraph(name, graph, gate, records) && ok;
  }
  PrintRule();
  std::printf("verdict: %s\n", ok ? "OK" : "FAILED");
  if (!json_path.empty()) {
    if (!WriteBenchJson(json_path, "placement_micro", records)) ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) { return receipt::bench::Main(argc, argv); }
