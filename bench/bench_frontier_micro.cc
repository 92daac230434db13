// Frontier-vs-scan micro-benchmark: runs the RECEIPT coarse+fine tip
// decomposition and the RECEIPT-W wing decomposition once per graph, on a
// skewed (Chung–Lu) and a uniform (Erdős–Rényi-style) generator graph, and
// reports how the engine rebuilt its active sets: frontier merges (while
// the frontier holds fewer than kFrontierDensity × alive entities) versus
// full scans.
//
// Reports per-graph rounds, total active-set elements examined and
// per-phase seconds; verifies that every run produces the tip/wing numbers
// of sequential BUP / sequential wing peeling and that, whenever a
// frontier merge ran, the rebuilds examined strictly fewer elements than
// n × (frontier_rounds + scan_rounds) — exactly what a scan-only rebuild
// of the same rounds would examine (the paper's Figs. 8–9 overhead
// argument). Exits non-zero when either check fails, so CI can gate on
// it. `--json <path>` additionally emits the records as a
// BENCH_frontier_micro trajectory file.
//
// Plain executable (no google-benchmark): deterministic single-pass runs
// are what the element counters need.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace receipt::bench {
namespace {

struct MicroGraph {
  const char* name;
  BipartiteGraph graph;
};

/// Prints one run's direction counters, records it, and checks the
/// element gate against the scan-only cost of the same rounds.
bool Report(const char* graph, const char* algo, uint64_t n,
            const PeelStats& s, std::vector<JsonRecord>& records) {
  const uint64_t scan_only = n * (s.frontier_rounds + s.scan_rounds);
  std::printf(
      "%-8s %-5s rounds: frontier=%-5llu scan=%-5llu "
      "active_elements=%-10llu scan_only=%-10llu cd=%.3fs fd=%.3fs\n",
      graph, algo, static_cast<unsigned long long>(s.frontier_rounds),
      static_cast<unsigned long long>(s.scan_rounds),
      static_cast<unsigned long long>(s.active_scan_elements),
      static_cast<unsigned long long>(scan_only), s.seconds_cd,
      s.seconds_fd);

  JsonRecord record;
  record.name = std::string(graph) + "/" + algo;
  AppendPeelStats(s, &record);
  records.push_back(std::move(record));

  // Degenerate configurations (e.g. RECEIPT_BENCH_PARTITIONS=1) may run no
  // frontier merge at all; the strict check applies whenever one ran.
  if (s.frontier_rounds > 0 && s.active_scan_elements >= scan_only) {
    std::printf(
        "!! %s/%s: rebuilds examined %llu elements, expected strictly fewer "
        "than the scan-only %llu\n",
        graph, algo, static_cast<unsigned long long>(s.active_scan_elements),
        static_cast<unsigned long long>(scan_only));
    return false;
  }
  return true;
}

bool RunTip(const MicroGraph& mg, std::vector<JsonRecord>& records) {
  const TipResult bup = BupDecompose(mg.graph, TipOptions{});
  TipOptions options;
  options.num_threads = DefaultThreads();
  options.num_partitions = DefaultPartitions();
  const TipResult r = ReceiptDecompose(mg.graph, options);
  bool ok = Report(mg.name, "tip", mg.graph.num_u(), r.stats, records);
  if (r.tip_numbers != bup.tip_numbers) {
    std::printf("!! %s/tip: tip numbers differ from BUP\n", mg.name);
    ok = false;
  }
  return ok;
}

bool RunWing(const MicroGraph& mg, std::vector<JsonRecord>& records) {
  const WingResult sequential = WingDecompose(mg.graph, /*num_threads=*/1);
  ReceiptWingOptions options;
  options.num_threads = DefaultThreads();
  options.num_partitions = 8;
  const WingResult r = ReceiptWingDecompose(mg.graph, options);
  bool ok = Report(mg.name, "wing", mg.graph.num_edges(), r.stats, records);
  if (r.wing_numbers != sequential.wing_numbers) {
    std::printf("!! %s/wing: wing numbers differ from sequential peeling\n",
                mg.name);
    ok = false;
  }
  return ok;
}

int Main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  PrintHeader(
      "frontier micro-bench — active-set rebuild direction "
      "(frontier merge vs full scan), checked against BUP / sequential wing");

  // Skewed: heavy-tailed degrees mean long peeling tails of tiny rounds —
  // exactly where per-round O(n) scans are pure overhead (Figs. 8–9).
  // Uniform: flat degrees, fat rounds, the scan direction's best case.
  std::vector<MicroGraph> tip_graphs;
  tip_graphs.push_back(
      {"skewed", ChungLuBipartite(2500, 1800, 22000, 0.85, 0.85, 1001)});
  tip_graphs.push_back({"uniform", RandomBipartite(2500, 1800, 22000, 1003)});
  // Edge peeling traverses far more state per peel, so the wing sweep uses
  // smaller graphs (the direction counters, not wall-clock, carry the
  // signal here).
  std::vector<MicroGraph> wing_graphs;
  wing_graphs.push_back(
      {"skewed", ChungLuBipartite(500, 350, 4000, 0.8, 0.8, 1005)});
  wing_graphs.push_back({"uniform", RandomBipartite(500, 350, 4000, 1007)});

  std::vector<JsonRecord> records;
  bool ok = true;
  for (const MicroGraph& mg : tip_graphs) {
    ok = RunTip(mg, records) && ok;
  }
  for (const MicroGraph& mg : wing_graphs) {
    ok = RunWing(mg, records) && ok;
  }
  PrintRule();
  std::printf("verdict: %s\n", ok ? "OK" : "FAILED");

  if (!json_path.empty()) {
    if (!WriteBenchJson(json_path, "frontier_micro", records)) ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) { return receipt::bench::Main(argc, argv); }
