// Implementation ablation from §5.1: "In RECEIPT FD and sequential BUP, we
// use a k-way min-heap for efficient retrieval of minimum support vertices.
// We found it to be faster in practice than the bucketing structure of [51]
// or fibonacci heaps." This bench times BUP and RECEIPT FD with all three
// extraction backends (4-ary lazy heap / Julienne buckets / pairing heap)
// and prints the measured winner per target, so the claim is checked here
// rather than quoted.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

namespace receipt::bench {
namespace {

struct Cell {
  double t_bup = 0;
  double t_receipt_fd = 0;
};

std::map<std::string, std::map<MinExtraction, Cell>>& Rows() {
  static auto& rows =
      *new std::map<std::string, std::map<MinExtraction, Cell>>();
  return rows;
}

void Ablation(benchmark::State& state, const Target& target,
              MinExtraction kind) {
  const BipartiteGraph& g = Dataset(target.dataset);
  TipOptions options;
  options.side = target.side;
  options.num_threads = DefaultThreads();
  options.num_partitions = DefaultPartitions();
  options.min_extraction = kind;
  Cell cell;
  for (auto _ : state) {
    cell.t_bup = BupDecompose(g, options).stats.seconds_total;
    cell.t_receipt_fd = ReceiptDecompose(g, options).stats.seconds_fd;
  }
  state.counters["t_bup_s"] = cell.t_bup;
  state.counters["t_receipt_fd_s"] = cell.t_receipt_fd;
  Rows()[target.label][kind] = cell;
}

/// The backend with the smallest time in `cells` under `time_of`.
template <typename TimeOf>
MinExtraction Fastest(const std::map<MinExtraction, Cell>& cells,
                      TimeOf&& time_of) {
  MinExtraction best = kAllExtractions[0];
  for (const MinExtraction kind : kAllExtractions) {
    if (time_of(cells.at(kind)) < time_of(cells.at(best))) best = kind;
  }
  return best;
}

void PrintTable() {
  PrintHeader(
      "Extraction-structure ablation (§5.1): BUP total / RECEIPT FD time "
      "per backend");
  std::printf("%-5s |", "tgt");
  for (const MinExtraction kind : kAllExtractions) {
    std::printf(" %10s-BUP %10s-FD |", ExtractionName(kind),
                ExtractionName(kind));
  }
  std::printf(" %-10s %-10s\n", "win-BUP", "win-FD");
  PrintRule();
  size_t heap_wins_bup = 0;
  size_t heap_wins_fd = 0;
  for (const auto& [label, cells] : Rows()) {
    std::printf("%-5s |", label.c_str());
    for (const MinExtraction kind : kAllExtractions) {
      const Cell& c = cells.at(kind);
      std::printf(" %14.3f %13.3f |", c.t_bup, c.t_receipt_fd);
    }
    const MinExtraction win_bup =
        Fastest(cells, [](const Cell& c) { return c.t_bup; });
    const MinExtraction win_fd =
        Fastest(cells, [](const Cell& c) { return c.t_receipt_fd; });
    heap_wins_bup += win_bup == MinExtraction::kDAryHeap ? 1 : 0;
    heap_wins_fd += win_fd == MinExtraction::kDAryHeap ? 1 : 0;
    std::printf(" %-10s %-10s\n", ExtractionName(win_bup),
                ExtractionName(win_fd));
  }
  PrintRule();
  std::printf(
      "measured: the 4-ary heap is fastest on %zu/%zu targets for BUP and "
      "%zu/%zu for RECEIPT FD (paper §5.1 claims it wins everywhere).\n\n",
      heap_wins_bup, Rows().size(), heap_wins_fd, Rows().size());
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) {
  for (const receipt::bench::Target& target : receipt::bench::AllTargets()) {
    if (target.side != receipt::Side::kU) continue;  // the expensive sides
    for (const receipt::MinExtraction kind :
         receipt::bench::kAllExtractions) {
      benchmark::RegisterBenchmark(
          ("Extraction/" + target.label + "/" +
           receipt::bench::ExtractionName(kind))
              .c_str(),
          [target, kind](benchmark::State& state) {
            receipt::bench::Ablation(state, target, kind);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  receipt::bench::PrintTable();
  return 0;
}
