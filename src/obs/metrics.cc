#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace receipt::obs {
namespace {

/// Bucket index for a duration: smallest i with ns <= 2^i. Computed from
/// bit_width(ns - 1) — the naive bit_width(ns) - 1 would file ns=3 under
/// le=2 — then clamped into the overflow slot.
int BucketIndex(uint64_t ns) {
  const int i = ns <= 1 ? 0 : std::bit_width(ns - 1);
  return std::min(i, Histogram::kFiniteBuckets);
}

void AppendNumber(std::string* out, double value) {
  char buf[64];
  // %.17g round-trips doubles; integral values still print without
  // exponent noise for the common all-integer case.
  if (value == static_cast<uint64_t>(value) && value < 1e15) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out->append(buf);
}

void AppendNumber(std::string* out, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out->append(buf);
}

/// Label values need the exposition-format escapes (backslash, quote,
/// newline); names are caller-controlled identifiers and pass through.
void AppendEscapedLabelValue(std::string* out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(labels[i].first);
    out.append("=\"");
    AppendEscapedLabelValue(&out, labels[i].second);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

/// Histogram children carry their labels plus le=...; splice the le pair
/// inside the existing brace set (or open a fresh one).
std::string BucketLabels(const std::string& rendered, const char* le) {
  std::string out;
  if (rendered.empty()) {
    out = "{le=\"";
  } else {
    out = rendered.substr(0, rendered.size() - 1);  // drop '}'
    out.append(",le=\"");
  }
  out.append(le);
  out.append("\"}");
  return out;
}

}  // namespace

void Histogram::Observe(uint64_t ns) {
  buckets_[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void Histogram::ObserveSeconds(double seconds) {
  if (seconds < 0) seconds = 0;
  Observe(static_cast<uint64_t>(seconds * 1e9));
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::SumSeconds() const {
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

double Histogram::BucketBoundSeconds(int i) {
  return std::ldexp(1.0, i) * 1e-9;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t count = Count();
  if (count == 0) return 0.0;
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * count)));
  uint64_t cumulative = 0;
  for (int i = 0; i <= kFiniteBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      // The overflow bucket has no finite upper edge; report its lower
      // edge instead so the estimate stays a number.
      return BucketBoundSeconds(std::min(i, kFiniteBuckets - 1));
    }
  }
  return BucketBoundSeconds(kFiniteBuckets - 1);
}

MetricsRegistry::Child* MetricsRegistry::FindOrCreateChild(
    std::string_view name, std::string_view help, Kind kind, Labels labels,
    ReadFunc read) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(std::string(name), Family{kind, std::string(help), {}})
             .first;
  }
  Family& family = it->second;
  for (Child& child : family.children) {
    if (child.labels == labels) {
      if (read) child.read = std::move(read);
      return &child;
    }
  }
  Child child;
  child.read = std::move(read);
  child.rendered_labels = RenderLabels(labels);
  child.labels = std::move(labels);
  switch (kind) {
    case Kind::kCounter:
      child.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      child.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      child.histogram = std::make_unique<Histogram>();
      break;
  }
  family.children.push_back(std::move(child));
  return &family.children.back();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help, Labels labels) {
  return FindOrCreateChild(name, help, Kind::kCounter, std::move(labels))
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 Labels labels) {
  return FindOrCreateChild(name, help, Kind::kGauge, std::move(labels))
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         Labels labels) {
  return FindOrCreateChild(name, help, Kind::kHistogram, std::move(labels))
      ->histogram.get();
}

void MetricsRegistry::AddCounterFunc(std::string_view name,
                                     std::string_view help, Labels labels,
                                     ReadFunc read) {
  FindOrCreateChild(name, help, Kind::kCounter, std::move(labels),
                    std::move(read));
}

void MetricsRegistry::AddGaugeFunc(std::string_view name,
                                   std::string_view help, Labels labels,
                                   ReadFunc read) {
  FindOrCreateChild(name, help, Kind::kGauge, std::move(labels),
                    std::move(read));
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(4096);
  for (const auto& [name, family] : families_) {
    out.append("# HELP ").append(name).append(" ").append(family.help);
    out.push_back('\n');
    out.append("# TYPE ").append(name).append(" ");
    switch (family.kind) {
      case Kind::kCounter:
        out.append("counter");
        break;
      case Kind::kGauge:
        out.append("gauge");
        break;
      case Kind::kHistogram:
        out.append("histogram");
        break;
    }
    out.push_back('\n');
    for (const Child& child : family.children) {
      if (family.kind != Kind::kHistogram) {
        out.append(name).append(child.rendered_labels).push_back(' ');
        const uint64_t value = child.read ? child.read()
                               : family.kind == Kind::kCounter
                                   ? child.counter->Value()
                                   : child.gauge->Value();
        AppendNumber(&out, value);
        out.push_back('\n');
      } else {
        const Histogram& h = *child.histogram;
        uint64_t cumulative = 0;
        for (int i = 0; i < Histogram::kFiniteBuckets; ++i) {
          const uint64_t n = h.BucketCount(i);
          cumulative += n;
          // Empty leading buckets are elided (sub-microsecond edges carry
          // no information for request latencies) but once a bucket has
          // counts every subsequent edge is emitted so the cumulative
          // series stays monotone and parseable.
          if (cumulative == 0 && i < 10) continue;
          char le[32];
          std::snprintf(le, sizeof(le), "%.17g",
                        Histogram::BucketBoundSeconds(i));
          out.append(name).append("_bucket");
          out.append(BucketLabels(child.rendered_labels, le));
          out.push_back(' ');
          AppendNumber(&out, cumulative);
          out.push_back('\n');
        }
        cumulative += h.BucketCount(Histogram::kFiniteBuckets);
        out.append(name).append("_bucket");
        out.append(BucketLabels(child.rendered_labels, "+Inf"));
        out.push_back(' ');
        AppendNumber(&out, cumulative);
        out.push_back('\n');
        out.append(name).append("_sum").append(child.rendered_labels);
        out.push_back(' ');
        AppendNumber(&out, h.SumSeconds());
        out.push_back('\n');
        out.append(name).append("_count").append(child.rendered_labels);
        out.push_back(' ');
        AppendNumber(&out, cumulative);
        out.push_back('\n');
      }
    }
  }
  return out;
}

}  // namespace receipt::obs
