#ifndef RECEIPT_OBS_METRICS_H_
#define RECEIPT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace receipt::obs {

/// Monotone event counter. Incremented lock-free from any thread; read at
/// scrape time. Callers hold the pointer returned by the registry — the
/// hot path never touches the registry map.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, makespan of the most
/// recent run). Unlike Counter it may move in either direction.
class Gauge {
 public:
  void Set(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Latency histogram over log2 nanosecond buckets — the same power-of-two
/// bucketing idiom the SupportIndex uses for support values, applied to
/// durations. Bucket i counts observations with ns <= 2^i; bucket 0 covers
/// {0, 1} ns and the final slot is the +Inf overflow. 41 relaxed atomic
/// adds per second of traffic cost nothing measurable, and the fixed
/// layout means Observe never allocates.
///
/// Quantiles are upper-bound estimates: the cumulative walk returns the
/// upper edge of the bucket containing the q-th observation, so a reported
/// p99 of 2^21 ns means the true p99 lies in (2^20, 2^21]. Factor-of-two
/// resolution is exactly what latency triage needs and what a fixed
/// allocation can afford.
class Histogram {
 public:
  /// Finite buckets: upper bounds 2^0 .. 2^39 ns (~= 1.1 ks), then +Inf.
  static constexpr int kFiniteBuckets = 40;

  void Observe(uint64_t ns);
  void ObserveSeconds(double seconds);

  uint64_t Count() const;
  double SumSeconds() const;
  /// Upper bound of the bucket holding the q-th quantile observation, in
  /// seconds. Returns 0 when empty. q is clamped to [0, 1].
  double Quantile(double q) const;

  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of finite bucket i in seconds (2^i ns).
  static double BucketBoundSeconds(int i);

 private:
  std::array<std::atomic<uint64_t>, kFiniteBuckets + 1> buckets_{};
  std::atomic<uint64_t> sum_ns_{0};
};

/// One metric family label set, e.g. {outcome="ok"}. Kept sorted by key so
/// equal label sets render identically and map lookups are canonical.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Value source of a read-through series, called at scrape time.
using ReadFunc = std::function<uint64_t()>;

/// Named metrics, registered once and exported as Prometheus text.
///
/// Registration (GetCounter/GetGauge/GetHistogram) takes a mutex and is
/// meant for construction time: callers cache the returned pointer, which
/// stays valid for the registry's lifetime, and the request path is plain
/// relaxed atomics. Re-registering the same (name, labels) returns the
/// existing instrument. Rendering walks an ordered map, so the exposition
/// is deterministic — the text-format conformance test depends on that.
///
/// Read-through series (AddCounterFunc/AddGaugeFunc) export a count some
/// component already keeps in its own stats(), so /metrics and that stats()
/// read one number instead of two copies that can drift. The function runs
/// under the registry mutex: it may take a component's lock only if that
/// component never registers series while holding it.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name, std::string_view help,
                      Labels labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Labels labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          Labels labels = {});
  /// Registers a series whose value is `read()` at scrape time. The
  /// function must stay callable for the registry's lifetime. Registering
  /// an existing (name, labels) again replaces its function.
  void AddCounterFunc(std::string_view name, std::string_view help,
                      Labels labels, ReadFunc read);
  void AddGaugeFunc(std::string_view name, std::string_view help,
                    Labels labels, ReadFunc read);

  /// Full exposition in Prometheus text format, version 0.0.4: one
  /// `# HELP` + `# TYPE` header per family, then each child's samples.
  /// Histograms expand to cumulative `_bucket{le=...}`, `_sum`, `_count`.
  std::string RenderPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Child {
    Labels labels;
    std::string rendered_labels;  ///< "{k=\"v\",...}" or "" when unlabelled
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    ReadFunc read;  ///< set for read-through counters and gauges
  };
  struct Family {
    Kind kind;
    std::string help;
    std::vector<Child> children;
  };

  /// A non-empty `read` makes the child read-through (replacing any
  /// earlier function).
  Child* FindOrCreateChild(std::string_view name, std::string_view help,
                           Kind kind, Labels labels, ReadFunc read = {});

  mutable std::mutex mutex_;
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace receipt::obs

#endif  // RECEIPT_OBS_METRICS_H_
