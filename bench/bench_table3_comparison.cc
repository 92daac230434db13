// Reproduces Table 3: execution time (t), wedges traversed (∧) and
// synchronization rounds (ρ) of BUP, ParB and RECEIPT — plus the pvBcnt
// row — on every dataset × side, with the paper's reported values printed
// alongside for shape comparison. BUP is reported twice: with the paper's
// 4-ary heap (BUP4) and with the extraction backend measured fastest on
// the target (BUP*), and every RECEIPT-vs-BUP speedup names which it used.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

namespace receipt::bench {
namespace {

struct Row {
  double t_pvbcnt = 0;
  double t_bup = 0;          // paper-faithful: 4-ary heap extraction
  double t_bup_fastest = 0;  // fastest of the §5.1 backends
  MinExtraction bup_fastest = MinExtraction::kDAryHeap;
  double t_parb = 0;
  double t_receipt = 0;
  uint64_t wedges_pvbcnt = 0;
  uint64_t wedges_bup = 0;
  uint64_t wedges_receipt = 0;
  uint64_t rho_parb = 0;
  uint64_t rho_receipt = 0;
};

std::map<std::string, Row>& Rows() {
  static auto& rows = *new std::map<std::string, Row>();
  return rows;
}

TipOptions MakeOptions(Side side, int threads) {
  TipOptions options;
  options.side = side;
  options.num_threads = threads;
  options.num_partitions = DefaultPartitions();
  return options;
}

void RunTarget(benchmark::State& state, const Target& target) {
  const BipartiteGraph& g = Dataset(target.dataset);
  Row& row = Rows()[target.label];
  const int threads = DefaultThreads();
  for (auto _ : state) {
    {
      WallTimer t;
      uint64_t wedges = 0;
      benchmark::DoNotOptimize(CountButterflies(g, threads, &wedges));
      row.t_pvbcnt = t.Seconds();
      row.wedges_pvbcnt = wedges;
    }
    for (const MinExtraction kind : kAllExtractions) {
      TipOptions options = MakeOptions(target.side, 1);
      options.min_extraction = kind;
      const TipResult r = BupDecompose(g, options);
      const double seconds = r.stats.seconds_total;
      if (kind == MinExtraction::kDAryHeap) {
        row.t_bup = seconds;
        row.wedges_bup = r.stats.TotalWedges();
        row.t_bup_fastest = seconds;
      } else if (seconds < row.t_bup_fastest) {
        row.t_bup_fastest = seconds;
        row.bup_fastest = kind;
      }
    }
    {
      const TipResult r = ParbDecompose(g, MakeOptions(target.side, threads));
      row.t_parb = r.stats.seconds_total;
      row.rho_parb = r.stats.sync_rounds;
    }
    {
      const TipResult r =
          ReceiptDecompose(g, MakeOptions(target.side, threads));
      row.t_receipt = r.stats.seconds_total;
      row.wedges_receipt = r.stats.TotalWedges();
      row.rho_receipt = r.stats.sync_rounds;
    }
  }
  state.counters["t_bup_s"] = row.t_bup;
  state.counters["t_bup_fastest_s"] = row.t_bup_fastest;
  state.counters["t_parb_s"] = row.t_parb;
  state.counters["t_receipt_s"] = row.t_receipt;
  state.counters["rho_parb"] = static_cast<double>(row.rho_parb);
  state.counters["rho_receipt"] = static_cast<double>(row.rho_receipt);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void PrintTable() {
  PrintHeader(
      "Table 3 reproduction — t / wedges / rho for BUP, ParB, RECEIPT "
      "(threads=" + std::to_string(DefaultThreads()) +
      ", P=" + std::to_string(DefaultPartitions()) + ")");
  std::printf(
      "%-5s | %8s %8s %8s %-9s %8s %8s | %6s %6s | %12s %12s %12s | %9s "
      "%9s | paper t(BUP/ParB/REC)  rho(ParB/REC)\n",
      "tgt", "t_cnt", "t_BUP4", "t_BUP*", "(BUP*)", "t_ParB", "t_REC",
      "x_BUP4", "x_BUP*", "wdg_cnt", "wdg_BUP4", "wdg_REC", "rho_ParB",
      "rho_REC");
  PrintRule();
  for (const Target& target : AllTargets()) {
    const Row& r = Rows()[target.label];
    const PaperTable3Row* paper = FindPaperRow(target.label);
    std::printf(
        "%-5s | %8.3f %8.3f %8.3f %-9s %8.3f %8.3f | %6.1f %6.1f | %12llu "
        "%12llu %12llu | %9llu %9llu | %8.0f/%8.0f/%6.1f  %7.0f/%5.0f\n",
        target.label.c_str(), r.t_pvbcnt, r.t_bup, r.t_bup_fastest,
        ExtractionName(r.bup_fastest), r.t_parb, r.t_receipt,
        Ratio(r.t_bup, r.t_receipt), Ratio(r.t_bup_fastest, r.t_receipt),
        static_cast<unsigned long long>(r.wedges_pvbcnt),
        static_cast<unsigned long long>(r.wedges_bup),
        static_cast<unsigned long long>(r.wedges_receipt),
        static_cast<unsigned long long>(r.rho_parb),
        static_cast<unsigned long long>(r.rho_receipt), paper->t_bup,
        paper->t_parb, paper->t_receipt, paper->rho_parb,
        paper->rho_receipt);
  }
  PrintRule();
  std::printf(
      "BUP4 = sequential BUP with the paper's 4-ary heap; BUP* = the "
      "fastest extraction backend on that target (named). x_BUP4 / x_BUP* "
      "= RECEIPT speedup over each.\n");
  // Shape summary: who wins and by how much.
  double max_rho_ratio = 0;
  double max_wedge_ratio = 0;
  double max_speedup_heap = 0;
  double max_speedup_fastest = 0;
  for (const Target& target : AllTargets()) {
    const Row& r = Rows()[target.label];
    max_rho_ratio = std::max(
        max_rho_ratio, Ratio(static_cast<double>(r.rho_parb),
                             static_cast<double>(r.rho_receipt)));
    max_wedge_ratio = std::max(
        max_wedge_ratio, Ratio(static_cast<double>(r.wedges_bup),
                               static_cast<double>(r.wedges_receipt)));
    max_speedup_heap =
        std::max(max_speedup_heap, Ratio(r.t_bup, r.t_receipt));
    max_speedup_fastest =
        std::max(max_speedup_fastest, Ratio(r.t_bup_fastest, r.t_receipt));
  }
  std::printf(
      "max rho reduction ParB/RECEIPT: %.0fx (paper: up to 1105x); max "
      "wedge reduction BUP4/RECEIPT: %.1fx (paper: up to 64x)\n"
      "max speedup RECEIPT over BUP4: %.1fx; over BUP*: %.1fx\n\n",
      max_rho_ratio, max_wedge_ratio, max_speedup_heap, max_speedup_fastest);
}

std::vector<JsonRecord> CollectRecords() {
  std::vector<JsonRecord> records;
  for (const auto& [label, r] : Rows()) {
    JsonRecord record;
    record.name = label;
    record.counters.emplace_back("wedges_pvbcnt", r.wedges_pvbcnt);
    record.counters.emplace_back("wedges_bup", r.wedges_bup);
    record.counters.emplace_back("wedges_receipt", r.wedges_receipt);
    record.counters.emplace_back("rho_parb", r.rho_parb);
    record.counters.emplace_back("rho_receipt", r.rho_receipt);
    record.values.emplace_back("t_pvbcnt", r.t_pvbcnt);
    record.values.emplace_back("t_bup", r.t_bup);
    record.values.emplace_back("t_bup_fastest", r.t_bup_fastest);
    record.values.emplace_back("t_parb", r.t_parb);
    record.values.emplace_back("t_receipt", r.t_receipt);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) {
  const std::string json_path = receipt::bench::ConsumeJsonFlag(&argc, argv);
  for (const receipt::bench::Target& target : receipt::bench::AllTargets()) {
    benchmark::RegisterBenchmark(
        ("Table3/" + target.label).c_str(),
        [target](benchmark::State& state) {
          receipt::bench::RunTarget(state, target);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  receipt::bench::PrintTable();
  if (!json_path.empty() &&
      !receipt::bench::WriteBenchJson(json_path, "table3_comparison",
                                      receipt::bench::CollectRecords())) {
    return 1;
  }
  return 0;
}
