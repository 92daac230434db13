#ifndef RECEIPT_SERVER_HTTP_SERVER_H_
#define RECEIPT_SERVER_HTTP_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace receipt::server {

/// Transport tuning. Defaults are sized for the CI/test environment: a
/// handful of handler threads, loopback binding, conservative caps so a
/// malformed or hostile client cannot exhaust the process.
struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Connection handler threads. Each serves one connection at a time, so
  /// this bounds HTTP-level concurrency; decomposition concurrency stays
  /// bounded separately by the service's worker pool and queue.
  int num_threads = 4;
  int listen_backlog = 64;
  /// Accepted connections waiting for a free handler thread. Overflow is
  /// answered 503 immediately — transport-level admission control, before
  /// the service queue's 429 even comes into play.
  size_t max_pending_connections = 64;
  size_t max_header_bytes = size_t{64} << 10;
  size_t max_body_bytes = size_t{8} << 20;
  /// recv timeout per socket read; a stalled client costs a handler thread
  /// at most this long per read before the request is failed with 408.
  int recv_timeout_ms = 10000;
  /// send timeout per socket write: a client that stops reading (full
  /// socket buffer) gets its connection dropped instead of wedging a
  /// handler thread — and with it Stop()'s join — forever.
  int send_timeout_ms = 10000;
  /// Requests served on one persistent (HTTP/1.1 keep-alive) connection
  /// before the server closes it (`Connection: close` on the final
  /// response) — bounds how long a single client can monopolize a handler
  /// thread. Clients opt out per request with `Connection: close`;
  /// HTTP/1.0 requests default to close.
  size_t max_requests_per_connection = 64;
  /// How long a kept-alive connection may sit idle between requests before
  /// the server closes it silently. Distinct from recv_timeout_ms, which
  /// applies once a request has started arriving.
  int idle_timeout_ms = 5000;
};

/// One parsed HTTP/1.1 request as delivered to a handler.
struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "POST"
  std::string path;    ///< target with any ?query stripped
  std::string query;   ///< raw query string (no '?'), possibly empty
  std::string body;
  /// Header fields with lower-cased names (HTTP headers are
  /// case-insensitive; values are left verbatim).
  std::map<std::string, std::string> headers;

  /// True once the client has closed (or half-closed) its socket. Long
  /// handlers poll this to map client disconnect onto request cancellation.
  /// Peeks without consuming, so pipelined bytes are unaffected.
  bool ClientDisconnected() const;

  int client_fd = -1;  ///< owned by the server, valid during the handler
  /// Wall time (steady-clock ns) spent reading and parsing this request off
  /// the socket before dispatch — includes waiting for the client to send.
  /// Handlers that trace requests turn it into an "http.parse" span.
  uint64_t parse_ns = 0;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// A small dependency-free HTTP/1.1 server over POSIX sockets: one blocking
/// accept loop feeding a bounded queue of accepted connections, drained by a
/// fixed pool of handler threads. Connections are persistent by default
/// (HTTP/1.1 keep-alive with a per-connection request cap and an idle
/// timeout — a handler thread serves one connection at a time, so the cap
/// bounds how long one client can hold a thread). Routes are exact
/// (method, path) matches registered before Start().
///
/// Shutdown is graceful by construction: Stop() closes the listening socket
/// (no new connections), then handler threads drain every already-accepted
/// connection to a complete response before joining. In-flight requests are
/// never truncated mid-response.
class HttpServer {
 public:
  explicit HttpServer(const HttpServerOptions& options = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact (method, path). Must precede Start().
  void Handle(const std::string& method, const std::string& path,
              HttpHandler handler);

  /// Registers `handler` for any path beginning with `prefix` (e.g.
  /// "/v1/traces/" to capture "/v1/traces/{id}"). Exact routes win; among
  /// prefix routes the longest matching prefix wins. Must precede Start().
  void HandlePrefix(const std::string& method, const std::string& prefix,
                    HttpHandler handler);

  /// Binds, listens and spawns the accept/handler threads. Returns false
  /// with *error set when the socket cannot be bound.
  bool Start(std::string* error = nullptr);

  /// Graceful shutdown: stop accepting, drain accepted connections, join
  /// all threads. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  ///< pending-queue overflow → 503
    uint64_t requests = 0;              ///< requests parsed and dispatched
    uint64_t keepalive_reuses = 0;      ///< requests beyond a connection's 1st
    uint64_t responses_2xx = 0;
    uint64_t responses_4xx = 0;
    uint64_t responses_5xx = 0;
    uint64_t parse_failures = 0;        ///< malformed/oversized/timed out
  };
  Stats stats() const;

 private:
  void AcceptLoop();
  void HandlerLoop();
  void ServeConnection(int fd);
  /// Parses and dispatches one request out of `buffer` (which carries
  /// pipelined bytes between requests). Returns true when the connection
  /// should be kept open for another request.
  bool ServeOneRequest(int fd, std::string* buffer, size_t served_so_far);
  void WriteResponse(int fd, const HttpResponse& response, bool keep_alive);
  void CountResponse(int status);

  const HttpServerOptions options_;
  std::map<std::string, std::map<std::string, HttpHandler>> routes_;
  /// Prefix-matched fallbacks, consulted only when no exact path matches.
  std::map<std::string, std::map<std::string, HttpHandler>> prefix_routes_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;

  mutable std::mutex mu_;
  std::condition_variable pending_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a handler thread
  bool stopping_ = false;
  Stats stats_;

  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;
};

}  // namespace receipt::server

#endif  // RECEIPT_SERVER_HTTP_SERVER_H_
