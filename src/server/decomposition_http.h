#ifndef RECEIPT_SERVER_DECOMPOSITION_HTTP_H_
#define RECEIPT_SERVER_DECOMPOSITION_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/observability.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"

namespace receipt::server {

/// {"status":"error","error":message} with HTTP `status`. 429 and 503 also
/// carry Retry-After, so well-behaved clients back off instead of
/// retry-storming. Shared by every JSON route, cluster routes included.
HttpResponse JsonError(int status, const std::string& message);

/// Service terminal status -> HTTP status. Cancellation surfaces as 499
/// (client-closed-request): the only cancels a connected client can see
/// are non-drain shutdown races.
int HttpStatusFor(service::Status status);

/// /v1/graphs/{name}/edges -> name ("" when the path is not that shape).
/// The one parser of that path: the frontend, the cluster node and the
/// router all route on it.
std::string GraphNameFromEdgesPath(const std::string& path);

/// The graph name a request body addresses: the string `field` ("graph"
/// for /v1/decompose, "name" for /v1/graphs). Empty when the body is not
/// a JSON object or lacks the field — the caller delegates to the
/// frontend, whose validation produces the right 400.
std::string GraphNameFromBody(const std::string& body,
                              std::string_view field);

/// The value of the query parameter named exactly `key` in a raw query
/// string (no '?'): "subgraph=x&graph=g" yields "g" for "graph". Empty
/// when absent. The one query parser of the cluster routes.
std::string QueryParam(const std::string& query, std::string_view key);

/// The JSON endpoint surface over GraphRegistry + DecompositionService —
/// the piece that turns the in-process serving layer into a network
/// service. Registers its routes on an HttpServer; the caller owns all
/// three objects and starts/stops the server (stop the HTTP server first,
/// then shut the service down, so draining handlers can still resolve
/// their futures).
///
///   POST /v1/decompose   run (or cache-serve) a decomposition
///   GET  /v1/graphs      list resident graphs
///   POST /v1/graphs      register/load a graph (re-register bumps epoch)
///   POST /v1/graphs/{name}/edges
///                        buffer an edge-update batch against a live graph;
///                        seals (incremental recompute + epoch bump) per the
///                        service's live policy or an explicit "seal":true
///   GET  /healthz        liveness
///   GET  /statz          queue depth, cache hit rate, worker utilization
///   GET  /metrics        Prometheus text exposition of every instrument
///   GET  /v1/traces      recent spans from the trace ring (?limit=N)
///   GET  /v1/traces/{id} all spans of one trace, oldest first
///
/// Every /v1/decompose request gets a trace id — minted here, or accepted
/// from an X-Request-Id header — that is echoed in the response (header and
/// body) and keys the spans recorded across transport parse, queue wait and
/// the engine phases. The service's Observability bundle is the single sink.
///
/// Admission control: a full service queue turns into HTTP 429 (ticketed
/// non-blocking submit — handler threads never block on backpressure), and
/// a client that disconnects mid-decomposition abandons its ticket, which
/// cancels the engine run through PeelControl once no coalesced twin still
/// wants the result.
class DecompositionHttpFrontend {
 public:
  /// `register_routes` false skips route registration: a wrapper (the
  /// cluster node) installs its own cluster-aware routes and delegates to
  /// the public handlers below for everything it serves locally.
  DecompositionHttpFrontend(service::GraphRegistry& registry,
                            service::DecompositionService& service,
                            HttpServer& server, bool register_routes = true);

  // Handlers are public so a wrapping route table can reuse them verbatim.
  HttpResponse HandleDecompose(const HttpRequest& request);
  HttpResponse HandleListGraphs(const HttpRequest& request);
  HttpResponse HandleRegisterGraph(const HttpRequest& request);
  HttpResponse HandleGraphEdges(const HttpRequest& request);
  HttpResponse HandleAdminSnapshot(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleStatz(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleTraces(const HttpRequest& request);
  HttpResponse HandleTraceById(const HttpRequest& request);

  /// The /statz document: queue, workers, scheduler, request, cache, HTTP,
  /// live and durability counts plus latency quantiles. Every count is read
  /// from the same source /metrics exports. The CLI prints it at drain.
  std::string RenderStatz();

  struct Stats {
    /// receipt_http_requests_total{path="/v1/decompose"}
    uint64_t decompose_requests = 0;
    uint64_t rejected_busy = 0;       ///< 429s from queue admission
    uint64_t disconnect_cancels = 0;  ///< tickets abandoned on disconnect
    uint64_t graphs_registered = 0;
    uint64_t edge_batches = 0;  ///< /v1/graphs/{name}/edges batches accepted
    uint64_t snapshots_taken = 0;  ///< /v1/admin/snapshot graph snapshots
  };
  Stats stats() const;

 private:
  /// receipt_http_requests_total{path=...}, registering the label child
  /// on first sight of the path.
  obs::Counter* HttpRequestCounter(const std::string& path);
  /// Bumps HttpRequestCounter(path).
  void CountHttpRequest(const std::string& path);

  service::GraphRegistry* registry_;
  service::DecompositionService* service_;
  HttpServer* server_;
  obs::Observability* obs_;
  obs::Histogram* http_request_seconds_;
  /// Registered up front so stats() reads the exported count.
  obs::Counter* decompose_requests_;

  std::atomic<uint64_t> rejected_busy_{0};
  std::atomic<uint64_t> disconnect_cancels_{0};
  std::atomic<uint64_t> graphs_registered_{0};
  std::atomic<uint64_t> edge_batches_{0};
  std::atomic<uint64_t> snapshots_taken_{0};
};

}  // namespace receipt::server

#endif  // RECEIPT_SERVER_DECOMPOSITION_HTTP_H_
