#ifndef RECEIPT_BENCH_BENCH_SCALABILITY_COMMON_H_
#define RECEIPT_BENCH_BENCH_SCALABILITY_COMMON_H_

// Shared driver for the Fig. 10 / Fig. 11 scalability reproductions:
// RECEIPT self-relative speedup with T ∈ {1, 2, 4, 9, 18, 36} threads while
// peeling one side of every dataset, for the whole decomposition and for
// each phase (pvBcnt counting, CD, FD). Thread counts above the machine's
// core count are oversubscribed, so their times show scheduling overhead
// rather than speedup; the sweep still exercises every parallel code path.

#include <benchmark/benchmark.h>

#include <map>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace receipt::bench {

/// One sweep point: whole-decomposition and per-phase wall times.
struct PhaseSeconds {
  double total = 0;
  double count = 0;
  double cd = 0;
  double fd = 0;
};

inline const std::vector<int>& ThreadSweep() {
  static const auto& sweep = *new std::vector<int>{1, 2, 4, 9, 18, 36};
  return sweep;
}

inline std::map<std::string, std::map<int, PhaseSeconds>>&
ScalabilitySeries() {
  static auto& series =
      *new std::map<std::string, std::map<int, PhaseSeconds>>();
  return series;
}

inline void ScalabilityPoint(benchmark::State& state, const Target& target,
                             int threads) {
  const BipartiteGraph& g = Dataset(target.dataset);
  TipOptions options;
  options.side = target.side;
  options.num_threads = threads;
  options.num_partitions = DefaultPartitions();
  PhaseSeconds seconds;
  for (auto _ : state) {
    const TipResult r = ReceiptDecompose(g, options);
    seconds = {r.stats.seconds_total, r.stats.seconds_counting,
               r.stats.seconds_cd, r.stats.seconds_fd};
  }
  state.counters["seconds"] = seconds.total;
  ScalabilitySeries()[target.label][threads] = seconds;
}

inline void PrintScalabilityTable(const std::string& figure, Side side) {
  const auto speedup = [](double t1, double tT) {
    return tT > 0 ? t1 / tT : 0.0;
  };
  PrintHeader(figure + " reproduction — RECEIPT self-relative speedup, "
              "peeling set " + SideName(side) + " (" +
              std::to_string(std::thread::hardware_concurrency()) +
              " hardware threads)");
  std::printf("%-8s", "threads");
  for (const auto& [label, series] : ScalabilitySeries()) {
    std::printf(" | %-37s", label.c_str());
  }
  std::printf("\n%-8s", "");
  for (size_t i = 0; i < ScalabilitySeries().size(); ++i) {
    std::printf(" | %8s %6s %6s %6s %6s", "time_s", "total", "count", "cd",
                "fd");
  }
  std::printf("\n");
  PrintRule();
  for (const int threads : ThreadSweep()) {
    std::printf("%-8d", threads);
    for (const auto& [label, series] : ScalabilitySeries()) {
      const PhaseSeconds& t1 = series.at(1);
      const PhaseSeconds& tT = series.at(threads);
      std::printf(" | %8.3f %5.2fx %5.2fx %5.2fx %5.2fx", tT.total,
                  speedup(t1.total, tT.total), speedup(t1.count, tT.count),
                  speedup(t1.cd, tT.cd), speedup(t1.fd, tT.fd));
    }
    std::printf("\n");
  }
  PrintRule();
  std::printf(
      "paper: up to 17.1x self-relative speedup at 36 threads on a 36-core "
      "machine; here speedups beyond the hardware thread count above are "
      "not expected.\n\n");
}

/// Emits the collected (target, threads) → seconds series as a
/// BENCH_*.json trajectory file. Call after the benchmarks ran.
inline void WriteScalabilityJson(const std::string& path,
                                 const std::string& figure) {
  std::vector<JsonRecord> records;
  for (const auto& [label, series] : ScalabilitySeries()) {
    for (const auto& [threads, seconds] : series) {
      JsonRecord record;
      record.name = label + "/T" + std::to_string(threads);
      record.counters.emplace_back("threads",
                                   static_cast<uint64_t>(threads));
      record.values.emplace_back("seconds_total", seconds.total);
      record.values.emplace_back("seconds_counting", seconds.count);
      record.values.emplace_back("seconds_cd", seconds.cd);
      record.values.emplace_back("seconds_fd", seconds.fd);
      records.push_back(std::move(record));
    }
  }
  WriteBenchJson(path, figure, records);
}

inline void RegisterScalabilityBenchmarks(const std::string& figure,
                                          Side side) {
  for (const Target& target : AllTargets()) {
    if (target.side != side) continue;
    for (const int threads : ThreadSweep()) {
      benchmark::RegisterBenchmark(
          (figure + "/" + target.label + "/T" + std::to_string(threads))
              .c_str(),
          [target, threads](benchmark::State& state) {
            ScalabilityPoint(state, target, threads);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace receipt::bench

#endif  // RECEIPT_BENCH_BENCH_SCALABILITY_COMMON_H_
