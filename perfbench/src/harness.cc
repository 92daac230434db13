#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "graph/generators.h"
#include "util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::TailLevel() const {
  const double n = static_cast<double>(values_.size());
  if (n < 20.0) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / n);
}

std::string FormatNumber(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!std::isfinite(value)) {
    ++failed_;
    if (failures_.size() < 8) {
      failures_.push_back("metric " + name + " is not a finite number");
    }
    value = 0.0;
  }
  metrics_[name] = Entry{value, unit, note};
}

void Report::MedianMetric(const std::string& name, const Samples& samples,
                          double scale, const std::string& unit,
                          const std::string& what) {
  Metric(name, samples.Median() * scale, unit,
         (what.empty() ? "" : what + ": ") + "median of " +
             std::to_string(samples.size()) + " samples");
}

void Report::MeanMetric(const std::string& name, const Samples& samples,
                        double scale, const std::string& unit,
                        const std::string& what) {
  Metric(name, samples.Mean() * scale, unit,
         (what.empty() ? "" : what + ": ") + "mean of " +
             std::to_string(samples.size()) + " samples, median " +
             FormatNumber(samples.Median() * scale));
}

void Report::TailMetric(const std::string& name, const Samples& samples,
                        double scale, const std::string& unit,
                        const std::string& what) {
  const double level = samples.TailLevel();
  char note[96];
  std::snprintf(note, sizeof(note), "p%.4g of %zu samples", level * 100.0,
                samples.size());
  Metric(name, samples.Percentile(level) * scale, unit,
         (what.empty() ? "" : what + ": ") + note);
}

void Report::Note(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(line);
}

void Report::Attempted(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::Failed(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

int Report::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  const double fail_ratio =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  // Failures over attempts is a per-layer figure: it is 0 on a healthy
  // run, so it cannot carry a relative end-to-end bound.
  if (config_.trace) metrics_["fail_ratio"] = Entry{fail_ratio, "ratio", ""};
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("-- %s metrics (%s run)\n", config_.workload.c_str(),
              config_.trace ? "traced: per-layer" : "untraced: end-to-end");
  for (const auto& [name, entry] : metrics_) {
    std::printf("  %-28s %16s %-6s %s\n", name.c_str(),
                FormatNumber(entry.value).c_str(), entry.unit.c_str(),
                entry.note.c_str());
  }
  std::printf("  operations attempted %llu, failed %llu (fail_ratio %s)\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              FormatNumber(fail_ratio).c_str());
  for (const std::string& why : failures_) {
    std::printf("  FAILED: %s\n", why.c_str());
  }

  const bool correct = failed_ == 0 && attempted_ > 0;
  receipt::util::JsonWriter json;
  json.BeginObject()
      .Key("correct").Bool(correct)
      .Key("attempted").Uint(std::max<uint64_t>(attempted_, 1))
      .Key("failed").Uint(failed_)
      .Key("metrics").BeginObject();
  for (const auto& [name, entry] : metrics_) {
    // Doubles are written shortest-round-trip so no digit is lost.
    json.Key(name).BeginObject().Key("value").Double(entry.value)
        .Key("unit").String(entry.unit).EndObject();
  }
  json.EndObject().EndObject();
  std::string line = json.Take();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

const char* EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

}  // namespace

void PrintMetadata(const RunConfig& config, int engine_threads,
                   int client_threads) {
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%s trace=%d\n"
      "  commit=%s source_digest=%s build_type=%s\n"
      "  cpu=\"%s\" nproc=%u engine_threads=%d client_threads=%d\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      FormatNumber(config.seconds).c_str(), config.trace ? 1 : 0,
      EnvOr("PERFBENCH_COMMIT", "none"),
      EnvOr("PERFBENCH_SOURCE_DIGEST", "none"), PERFBENCH_BUILD_TYPE,
      CpuModel().c_str(), std::thread::hardware_concurrency(), engine_threads,
      client_threads);
  std::fflush(stdout);
}

receipt::BipartiteGraph MakeChungLu(uint32_t num_u, uint32_t num_v,
                                    uint64_t edges, double alpha_u,
                                    double alpha_v, uint64_t seed,
                                    Samples* generate_seconds) {
  const Span span;
  receipt::BipartiteGraph graph = receipt::ChungLuBipartite(
      num_u, num_v, edges, alpha_u, alpha_v, seed);
  if (generate_seconds != nullptr) generate_seconds->Add(span.Seconds());
  return graph;
}

std::string Percent(double part, double whole) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                whole > 0.0 ? 100.0 * part / whole : 0.0);
  return buf;
}

std::string Within(double part, double whole) {
  constexpr double kCoverageTolerance = 0.15;
  const double ratio = whole > 0.0 ? part / whole : 0.0;
  const bool ok = ratio >= 1.0 - kCoverageTolerance &&
                  ratio <= 1.0 + kCoverageTolerance;
  return Percent(part, whole) + (ok ? ", within" : ", OUTSIDE") + " the +/-" +
         Percent(kCoverageTolerance, 1.0) + " tolerance";
}

}  // namespace perfbench
