#ifndef RECEIPT_OBS_OBSERVABILITY_H_
#define RECEIPT_OBS_OBSERVABILITY_H_

#include "obs/metrics.h"
#include "obs/trace.h"

namespace receipt::obs {

/// A metrics registry and a span flight recorder. Each
/// DecompositionService owns one, so instruments always exist, call sites
/// never null-check, and no registry ever merges two services' counts; its
/// HTTP front-end and the CLI report through service.observability().
struct Observability {
  MetricsRegistry metrics;
  TraceRecorder traces{4096};
};

}  // namespace receipt::obs

#endif  // RECEIPT_OBS_OBSERVABILITY_H_
