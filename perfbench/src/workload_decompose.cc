// decompose-skewed: the one-shot decompositions on the ROADMAP baseline
// graph.
//
// Untraced rounds time the public one-shot entry points (ReceiptDecompose
// tip-U at t=2 and t=1, tip-V at t=2 with its transpose,
// ReceiptWingDecompose at t=2 on a smaller graph). Traced rounds make the
// same calls layer by layer — SwappedCopy, ReceiptCd, ReceiptFd,
// ReceiptWingCoarse, ReceiptWingFine — on one shared workspace pool,
// exactly as the one-shot entry points do, so the benchmark's spans add no
// work of their own.
#include <string>
#include <vector>

#include "engine/workspace.h"
#include "harness.h"
#include "tip/receipt.h"
#include "tip/receipt_cd.h"
#include "tip/receipt_fd.h"
#include "wing/receipt_wing.h"

namespace perfbench {
namespace {

using receipt::BipartiteGraph;
using receipt::Count;
using receipt::PeelStats;
using receipt::Side;
using receipt::TipOptions;

// The ROADMAP baseline shape: `receipt_cli generate --type chunglu --nu
// 40000 --nv 4000 --edges 800000 --seed N` (seed 3 reproduces the
// published counters).
constexpr uint32_t kNumU = 40000;
constexpr uint32_t kNumV = 4000;
constexpr uint64_t kEdges = 800000;
// Wing cost grows steeply with size (50k edges 0.21 s, 200k edges 7.0 s at
// t=2 on a 4-vCPU Xeon VM); this graph takes about a second.
constexpr uint32_t kWingNumU = 20000;
constexpr uint32_t kWingNumV = 2000;
constexpr uint64_t kWingEdges = 110000;
constexpr uint64_t kWingSeedSalt = 0x5749'4e47;  // "WING"
constexpr int kSetupRepeats = 3;
// Rounds every run makes however slow the machine is, so each median has
// at least this many samples (traced rounds are longer).
constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;

TipOptions TipOpts(Side side, int threads) {
  TipOptions options;
  options.side = side;
  options.num_threads = threads;
  return options;
}

/// Deterministic work counters of one tip-U run; they must repeat exactly
/// across thread counts and rounds.
struct Counters {
  uint64_t count_wedges = 0;
  uint64_t cd_wedges = 0;
  uint64_t sync_rounds = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

Counters CountersOf(const PeelStats& stats) {
  return {stats.wedges_counting, stats.wedges_cd, stats.sync_rounds};
}

struct State {
  BipartiteGraph graph;
  BipartiteGraph wing_graph;
  // First results seen: every later run must reproduce them.
  std::vector<Count> tip_u, tip_v, wing;
  bool have_counters = false;
  Counters counters;

  Samples tipU_t2, tipU_t1, tipV, wing_s;  // untraced wall times
  // Traced layer times and counters.
  Samples swap, count_t2, cd_t1, cd_t2, fd_t1, fd_t2, traced_tipU_t2;
  Samples wing_coarse, wing_fine;
  PeelStats traced_t2_stats;
  PeelStats wing_stats;
};

void CheckSame(Report& report, const char* what, std::vector<Count>& expect,
               const std::vector<Count>& got) {
  report.Attempted();
  if (expect.empty()) {
    expect = got;
  } else if (expect != got) {
    report.Failed(std::string(what) + ": numbers differ from the first run");
  }
}

void CheckCounters(Report& report, State& state, const PeelStats& stats,
                   const char* what) {
  const Counters seen = CountersOf(stats);
  report.Attempted();
  if (!state.have_counters) {
    state.counters = seen;
    state.have_counters = true;
  } else if (!(seen == state.counters)) {
    report.Failed(std::string(what) +
                  ": deterministic counters (count.wedges, cd.wedges, "
                  "cd.sync_rounds) differ between repeats");
  }
}

/// One untraced round. `tipU_only` (traced runs) keeps just the t=2 tip-U
/// call the traced round is compared against.
void UntracedRound(State& state, Report& report, bool tipU_only) {
  {
    const Span span;
    receipt::TipResult r = receipt::ReceiptDecompose(state.graph,
                                                     TipOpts(Side::kU, 2));
    state.tipU_t2.Add(span.Seconds());
    CheckSame(report, "tip-U t=2", state.tip_u, r.tip_numbers);
    CheckCounters(report, state, r.stats, "tip-U t=2");
  }
  if (tipU_only) return;
  {
    const Span span;
    receipt::TipResult r = receipt::ReceiptDecompose(state.graph,
                                                     TipOpts(Side::kU, 1));
    state.tipU_t1.Add(span.Seconds());
    CheckSame(report, "tip-U t=1 vs t=2", state.tip_u, r.tip_numbers);
    CheckCounters(report, state, r.stats, "tip-U t=1");
  }
  {
    const Span span;
    receipt::TipResult r = receipt::ReceiptDecompose(state.graph,
                                                     TipOpts(Side::kV, 2));
    state.tipV.Add(span.Seconds());
    CheckSame(report, "tip-V t=2", state.tip_v, r.tip_numbers);
  }
  {
    receipt::ReceiptWingOptions options;
    options.num_threads = 2;
    const Span span;
    receipt::WingResult r =
        receipt::ReceiptWingDecompose(state.wing_graph, options);
    state.wing_s.Add(span.Seconds());
    CheckSame(report, "wing t=2", state.wing, r.wing_numbers);
  }
}

/// CD then FD on one pool, each call under its own span. Returns the
/// traced wall time of the pair.
double TracedTip(const BipartiteGraph& g, int threads, Samples& cd_s,
                 Samples& fd_s, Samples* count_s, PeelStats* stats_out,
                 std::vector<Count>* numbers) {
  const TipOptions options = TipOpts(Side::kU, threads);
  receipt::engine::WorkspacePool pool;
  PeelStats stats;
  const Span cd_span;
  receipt::CdResult cd = receipt::ReceiptCd(g, options, pool, &stats);
  const double cd_wall = cd_span.Seconds();
  numbers->assign(g.num_u(), 0);
  const Span fd_span;
  receipt::ReceiptFd(g, cd, options, pool, *numbers, &stats);
  const double fd_wall = fd_span.Seconds();
  // ReceiptCd's span covers butterfly counting too; split it with the
  // counter the call returns so count + cd + fd tiles the pair.
  cd_s.Add(cd_wall - stats.seconds_counting);
  if (count_s != nullptr) count_s->Add(stats.seconds_counting);
  fd_s.Add(fd_wall);
  if (stats_out != nullptr) *stats_out = stats;
  return cd_wall + fd_wall;
}

void TracedRound(State& state, Report& report) {
  std::vector<Count> numbers;
  PeelStats stats;
  state.traced_tipU_t2.Add(TracedTip(state.graph, 2, state.cd_t2,
                                     state.fd_t2, &state.count_t2, &stats,
                                     &numbers));
  CheckSame(report, "traced tip-U t=2", state.tip_u, numbers);
  CheckCounters(report, state, stats, "traced tip-U t=2");
  state.traced_t2_stats = stats;

  TracedTip(state.graph, 1, state.cd_t1, state.fd_t1, nullptr, &stats,
            &numbers);
  CheckSame(report, "traced tip-U t=1", state.tip_u, numbers);
  CheckCounters(report, state, stats, "traced tip-U t=1");

  {
    const Span span;
    const BipartiteGraph swapped = state.graph.SwappedCopy();
    state.swap.Add(span.Seconds());
    Samples cd_v, fd_v;
    TracedTip(swapped, 2, cd_v, fd_v, nullptr, nullptr, &numbers);
    CheckSame(report, "traced tip-V t=2", state.tip_v, numbers);
  }
  {
    receipt::engine::WorkspacePool pool;
    receipt::ReceiptWingOptions options;
    options.num_threads = 2;
    options.workspace_pool = &pool;
    PeelStats wing_stats;
    const Span coarse_span;
    const auto coarse =
        receipt::ReceiptWingCoarse(state.wing_graph, options, &wing_stats);
    state.wing_coarse.Add(coarse_span.Seconds());
    std::vector<Count> wing(state.wing_graph.num_edges(), 0);
    const Span fine_span;
    receipt::ReceiptWingFine(state.wing_graph, coarse, options, wing,
                             &wing_stats, {});
    state.wing_fine.Add(fine_span.Seconds());
    CheckSame(report, "traced wing t=2", state.wing, wing);
    state.wing_stats = wing_stats;
  }
}

}  // namespace

void RunDecomposeSkewed(const RunConfig& config, Report& report) {
  PrintMetadata(config, /*engine_threads=*/2, /*client_threads=*/0);
  State state;
  Samples setup, generate;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Span span;
    state.graph =
        MakeChungLu(kNumU, kNumV, kEdges, 0.5, 0.5, config.seed, &generate);
    state.wing_graph = MakeChungLu(kWingNumU, kWingNumV, kWingEdges, 0.5, 0.5,
                                   config.seed ^ kWingSeedSalt, nullptr);
    setup.Add(span.Seconds());
  }
  report.Note("graph |U|=40000 |V|=4000 |E|=" +
              std::to_string(state.graph.num_edges()) +
              "; wing graph |E|=" +
              std::to_string(state.wing_graph.num_edges()));

  // After the minimum, a new round starts while at least half of it fits
  // in the measuring window. A traced run alternates an untraced t=2 tip-U
  // call with a traced round, so drift hits both alike.
  const int min_rounds = config.trace ? kMinTracedRounds : kMinRounds;
  const double start = NowSeconds();
  double last_round = 0.0;
  for (int rounds = 0;
       rounds < min_rounds ||
       NowSeconds() - start + last_round / 2 < config.seconds;
       ++rounds) {
    const Span round;
    UntracedRound(state, report, /*tipU_only=*/config.trace);
    if (config.trace) TracedRound(state, report);
    last_round = round.Seconds();
  }

  const double tipU = state.tipU_t2.Median();
  if (!config.trace) {
    report.MedianMetric("setup_s", setup, 1.0, "s");
    // Means, not medians: on a shared 4-vCPU VM one call's time is
    // bimodal (tip-U t=1 on one graph took about 2.4 s or about 3.2 s,
    // calls seconds apart), and the median of a run's five to seven calls
    // jumps between the modes, where the mean moves with their mix.
    report.MeanMetric("op1_s", state.tipU_t2, 1.0, "s", "tip-U t=2");
    report.MeanMetric("op2_s", state.tipU_t1, 1.0, "s", "tip-U t=1");
    report.MeanMetric("op3_s", state.tipV, 1.0, "s", "tip-V t=2");
    report.MeanMetric("op4_s", state.wing_s, 1.0, "s", "wing t=2");
    report.Note("counters: count.wedges=" +
                std::to_string(state.counters.count_wedges) +
                " cd.wedges=" + std::to_string(state.counters.cd_wedges) +
                " cd.sync_rounds=" +
                std::to_string(state.counters.sync_rounds) +
                " (identical at t=1 and t=2 in every round)");
    return;
  }

  const PeelStats& s = state.traced_t2_stats;
  const double count_s = state.count_t2.Median();
  const double cd_s = state.cd_t2.Median();
  const double fd_s = state.fd_t2.Median();
  report.MedianMetric("graph.generate_s", generate, 1.0, "s");
  report.MedianMetric("graph.swap_s", state.swap, 1.0, "s");
  report.MedianMetric("count.s", state.count_t2, 1.0, "s");
  report.Metric("count.wedges", static_cast<double>(s.wedges_counting),
                "count");
  report.Metric("count.ns_per_wedge",
                count_s * 1e9 / static_cast<double>(s.wedges_counting), "ns");
  report.MedianMetric("cd.s", state.cd_t2, 1.0, "s");
  report.Metric("cd.wedges", static_cast<double>(s.wedges_cd), "count");
  report.Metric("cd.sync_rounds", static_cast<double>(s.sync_rounds),
                "count");
  report.Metric("cd.huc_recounts", static_cast<double>(s.huc_recounts),
                "count");
  report.Metric("cd.ns_per_wedge",
                cd_s * 1e9 / static_cast<double>(s.wedges_cd), "ns");
  report.Metric("cd.speedup_t2", state.cd_t1.Median() / cd_s, "x");
  report.MedianMetric("fd.s", state.fd_t2, 1.0, "s");
  report.Metric("fd.wedges", static_cast<double>(s.wedges_fd), "count");
  report.Metric("fd.makespan_predicted",
                static_cast<double>(s.makespan_predicted), "count");
  report.Metric("fd.makespan_measured",
                static_cast<double>(s.makespan_measured), "count");
  report.Metric("fd.speedup_t2", state.fd_t1.Median() / fd_s, "x");
  report.MedianMetric("wing.coarse_s", state.wing_coarse, 1.0, "s");
  report.MedianMetric("wing.fine_s", state.wing_fine, 1.0, "s");
  report.Metric("wing.wedges",
                static_cast<double>(state.wing_stats.TotalWedges()), "count");
  const double traced = state.traced_tipU_t2.Median();
  report.Metric("obs.trace_overhead", traced / tipU - 1.0, "ratio",
                "traced tip-U t=2 (CD+FD spans) over untraced");

  report.Note("untraced end-to-end (same run): tip-U t=2 median " +
              FormatNumber(tipU) +
              " (" + std::to_string(state.tipU_t2.size()) +
              " samples) setup_s=" + FormatNumber(setup.Median()));
  report.Note("coverage: count.s + cd.s + fd.s = " +
              FormatNumber(count_s + cd_s + fd_s) + " s = " +
              Within(count_s + cd_s + fd_s, tipU) +
              " of the untraced tip-U t=2 median (count " +
              Percent(count_s, tipU) + ", cd " + Percent(cd_s, tipU) +
              ", fd " + Percent(fd_s, tipU) + ")");
}

}  // namespace perfbench
