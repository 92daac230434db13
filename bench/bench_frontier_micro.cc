// Frontier-vs-scan micro-benchmark: runs the RECEIPT coarse+fine tip
// decomposition and the RECEIPT-W wing decomposition with the engine's
// active-set rebuilds forced to full scans (the pre-frontier behavior),
// forced to frontier merges, and under the fixed-density hybrid rule, on a
// skewed (Chung–Lu) and a uniform (Erdős–Rényi-style) generator graph.
//
// Reports per-configuration rounds, total active-set elements examined and
// per-phase seconds; verifies that every configuration produces identical
// tip/wing numbers and that the frontier direction examines strictly fewer
// active-set elements than the scan direction on the skewed graph (the
// paper's Figs. 8–9 overhead argument). Exits non-zero when either check
// fails, so CI can gate on it. `--json <path>` additionally emits the
// records as a BENCH_frontier_micro trajectory file.
//
// Plain executable (no google-benchmark): deterministic single-pass runs
// are what the element counters need.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace receipt::bench {
namespace {

struct Direction {
  const char* name;
  FrontierSwitch rule;
};

// Deterministic rules only — the element counters are the gate, and the
// measured-cost default is timing-dependent.
constexpr Direction kDirections[] = {
    {"scan", FrontierSwitch::kScanOnly},
    {"frontier", FrontierSwitch::kFrontierOnly},
    {"hybrid", FrontierSwitch::kFixedDensity},
};

struct MicroGraph {
  const char* name;
  BipartiteGraph graph;
};

bool RunTip(const MicroGraph& mg, std::vector<JsonRecord>& records,
            bool expect_fewer_elements) {
  bool ok = true;
  std::vector<Count> reference;
  uint64_t scan_elements = 0;
  uint64_t frontier_elements = 0;
  uint64_t frontier_rebuilds = 0;

  for (const Direction& dir : kDirections) {
    TipOptions options;
    options.num_threads = DefaultThreads();
    options.num_partitions = DefaultPartitions();
    options.frontier_switch = dir.rule;
    const TipResult r = ReceiptDecompose(mg.graph, options);

    if (reference.empty()) {
      reference = r.tip_numbers;
    } else if (r.tip_numbers != reference) {
      std::printf("!! %s/tip/%s: tip numbers differ from scan direction\n",
                  mg.name, dir.name);
      ok = false;
    }
    if (std::string(dir.name) == "scan") {
      scan_elements = r.stats.active_scan_elements;
    } else if (std::string(dir.name) == "frontier") {
      frontier_elements = r.stats.active_scan_elements;
      frontier_rebuilds = r.stats.frontier_rounds;
    }

    std::printf(
        "%-8s tip   %-9s rounds: frontier=%-5llu scan=%-5llu "
        "active_elements=%-10llu cd=%.3fs fd=%.3fs\n",
        mg.name, dir.name,
        static_cast<unsigned long long>(r.stats.frontier_rounds),
        static_cast<unsigned long long>(r.stats.scan_rounds),
        static_cast<unsigned long long>(r.stats.active_scan_elements),
        r.stats.seconds_cd, r.stats.seconds_fd);

    JsonRecord record;
    record.name = std::string(mg.name) + "/tip/" + dir.name;
    AppendPeelStats(r.stats, &record);
    records.push_back(std::move(record));
  }

  // Degenerate configurations (e.g. RECEIPT_BENCH_PARTITIONS=1) peel each
  // range in one round — no rebuilds exist for the frontier to save, and
  // equal element counts are the correct outcome. The strict check applies
  // whenever at least one frontier rebuild actually ran (always true for
  // the default partition count).
  if (expect_fewer_elements && frontier_rebuilds > 0 &&
      frontier_elements >= scan_elements) {
    std::printf(
        "!! %s/tip: frontier direction examined %llu elements, expected "
        "strictly fewer than the scan direction's %llu\n",
        mg.name, static_cast<unsigned long long>(frontier_elements),
        static_cast<unsigned long long>(scan_elements));
    ok = false;
  }
  return ok;
}

bool RunWing(const MicroGraph& mg, std::vector<JsonRecord>& records) {
  bool ok = true;
  std::vector<Count> reference;

  for (const Direction& dir : kDirections) {
    ReceiptWingOptions options;
    options.num_threads = DefaultThreads();
    options.num_partitions = 8;
    options.frontier_switch = dir.rule;
    const WingResult r = ReceiptWingDecompose(mg.graph, options);

    if (reference.empty()) {
      reference = r.wing_numbers;
    } else if (r.wing_numbers != reference) {
      std::printf("!! %s/wing/%s: wing numbers differ from scan direction\n",
                  mg.name, dir.name);
      ok = false;
    }

    std::printf(
        "%-8s wing  %-9s rounds: frontier=%-5llu scan=%-5llu "
        "active_elements=%-10llu cd=%.3fs fd=%.3fs\n",
        mg.name, dir.name,
        static_cast<unsigned long long>(r.stats.frontier_rounds),
        static_cast<unsigned long long>(r.stats.scan_rounds),
        static_cast<unsigned long long>(r.stats.active_scan_elements),
        r.stats.seconds_cd, r.stats.seconds_fd);

    JsonRecord record;
    record.name = std::string(mg.name) + "/wing/" + dir.name;
    AppendPeelStats(r.stats, &record);
    records.push_back(std::move(record));
  }
  return ok;
}

int Main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  PrintHeader(
      "frontier micro-bench — active-set rebuild direction "
      "(frontier merge vs full scan), bit-identical by construction");

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
    const bool is_skewed = std::string(mg.name) == "skewed";
    ok = RunTip(mg, records, /*expect_fewer_elements=*/is_skewed) && ok;
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
