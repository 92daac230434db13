// Shared plumbing of the end-to-end benchmark: run configuration, raw
// sample sets with percentiles, benchmark-side spans, and the report that
// prints every metric by name and unit and ends with the one-line JSON
// result.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/bipartite_graph.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space inside the checkout
};

/// Steady-clock seconds since an arbitrary epoch.
double NowSeconds();

/// A benchmark-side span: the wall time of one call into a layer's public
/// function, measured from outside the program.
class Span {
 public:
  Span() : start_(NowSeconds()) {}
  double Seconds() const { return NowSeconds() - start_; }

 private:
  double start_;
};

/// Raw samples of one quantity. Percentiles come from these values, never
/// from the program's power-of-two histogram buckets.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear-interpolated percentile, p in [0, 1]. 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;
  /// The highest percentile that has at least ten samples beyond it,
  /// capped at p99 (p50 when even that has fewer).
  double TailLevel() const;

 private:
  std::vector<double> values_;
};

/// Collects metrics and outcome counts for one run and prints them.
class Report {
 public:
  explicit Report(const RunConfig& config) : config_(config) {}

  /// Records a metric for the final JSON line and the text report. `note`
  /// (sample count, percentile) is printed in the text report only.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A median with its sample count in the note, after `what` (what the
  /// metric measures in this workload) when given.
  void MedianMetric(const std::string& name, const Samples& samples,
                    double scale, const std::string& unit,
                    const std::string& what = "");
  /// A mean with its sample count and the median in the note.
  void MeanMetric(const std::string& name, const Samples& samples,
                  double scale, const std::string& unit,
                  const std::string& what = "");
  /// The tail percentile (see Samples::TailLevel) with its level and count.
  void TailMetric(const std::string& name, const Samples& samples,
                  double scale, const std::string& unit,
                  const std::string& what = "");
  /// A text-only line (breakdowns, coverage, metadata).
  void Note(const std::string& line);

  /// Outcome accounting: every operation attempted, every failure
  /// (transport error, non-2xx, failed output check) with its reason.
  void Attempted(uint64_t n = 1);
  void Failed(const std::string& why);

  /// Prints the text report and the final JSON line; returns the exit code
  /// (non-zero when any operation or check failed).
  int Finish();

 private:
  struct Entry {
    double value;
    std::string unit;
    std::string note;
  };
  const RunConfig& config_;
  std::mutex mu_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few reasons
};

/// Run metadata printed at the top of every report.
void PrintMetadata(const RunConfig& config, int engine_threads,
                   int client_threads);

/// Seeded Chung–Lu graph with skews `alpha_u` / `alpha_v` (the CLI's
/// defaults are 0.5), timed into `generate_seconds` when non-null.
receipt::BipartiteGraph MakeChungLu(uint32_t num_u, uint32_t num_v,
                                    uint64_t edges, double alpha_u,
                                    double alpha_v, uint64_t seed,
                                    Samples* generate_seconds);


/// Formats a double with every digit (shortest round-trip form).
std::string FormatNumber(double value);


/// `part` as a percentage of `whole`, e.g. "93.2%".
std::string Percent(double part, double whole);
/// Whether layer times (`part`) account for the end-to-end time they sit
/// under (`whole`) within the benchmark's stated tolerance of +/-15%, as
/// "93.2%, within the +/-15.0% tolerance".
std::string Within(double part, double whole);

/// Workload entry points; each fills `report` and returns normally.
void RunDecomposeSkewed(const RunConfig& config, Report& report);
void RunChurnReplicated(const RunConfig& config, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
