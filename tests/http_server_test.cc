// Tests for the HTTP front-end: the project's HTTP client (plus raw
// loopback sockets for framing and keep-alive) drives the real
// POSIX-socket server end to end — happy-path decompositions bit-identical
// to the direct drivers, queue-admission 429s, malformed-body 400s,
// disconnect-triggered cancellation, graceful shutdown draining, and the
// healthz/statz introspection endpoints.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/http_client.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "tip/receipt.h"
#include "util/json.h"
#include "wing/wing_decomposition.h"

namespace receipt::server {
namespace {

using service::DecompositionService;
using service::GraphRegistry;
using service::ServiceOptions;

BipartiteGraph G1() { return ChungLuBipartite(300, 200, 1500, 0.6, 0.6, 101); }
BipartiteGraph G2() { return ChungLuBipartite(220, 260, 1200, 0.5, 0.8, 202); }

struct ClientResult {
  int status = 0;
  std::string body;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

/// Sends one fully-formed request on an already-connected socket.
void SendOnSocket(int fd, const std::string& method, const std::string& path,
                  const std::string& body,
                  const std::string& extra_headers = "") {
  std::string request = method + " " + path + " HTTP/1.1\r\n" +
                        "Host: 127.0.0.1\r\n" + extra_headers +
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n" + body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
}

/// Opens a loopback connection and sends one request that asks the server
/// to close afterwards (so EOF-delimited reads stay fast under the
/// keep-alive default). Returns the connected socket (caller closes).
int SendRequest(uint16_t port, const std::string& method,
                const std::string& path, const std::string& body) {
  const int fd = ConnectLoopback(port);
  SendOnSocket(fd, method, path, body, "Connection: close\r\n");
  return fd;
}

/// Reads the full response (the request asked the server to close).
ClientResult ReadResponse(int fd) {
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ClientResult result;
  // "HTTP/1.1 NNN Reason\r\n..."
  if (raw.size() > 12) result.status = std::atoi(raw.c_str() + 9);
  const size_t body_start = raw.find("\r\n\r\n");
  if (body_start != std::string::npos) result.body = raw.substr(body_start + 4);
  return result;
}

struct FramedResult {
  int status = 0;
  std::string headers;  ///< raw header block, lower-case comparisons ok
  std::string body;
  bool complete = false;  ///< false when the connection closed mid-read
};

/// Reads exactly one Content-Length-framed response, leaving the connection
/// open — the client side of keep-alive. `carry` holds bytes of the next
/// response that arrived in the same recv (pass the same string across
/// calls when responses may be pipelined).
FramedResult ReadFramedResponse(int fd, std::string* carry = nullptr) {
  FramedResult result;
  std::string local;
  std::string& raw = carry != nullptr ? *carry : local;
  char chunk[4096];
  size_t header_end = std::string::npos;
  while ((header_end = raw.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return result;
    raw.append(chunk, static_cast<size_t>(n));
  }
  result.status = std::atoi(raw.c_str() + 9);
  result.headers = raw.substr(0, header_end);
  const size_t length_at = result.headers.find("Content-Length: ");
  if (length_at == std::string::npos) return result;
  const size_t content_length = static_cast<size_t>(
      std::atoll(result.headers.c_str() + length_at + 16));
  while (raw.size() - header_end - 4 < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return result;
    raw.append(chunk, static_cast<size_t>(n));
  }
  result.body = raw.substr(header_end + 4, content_length);
  raw.erase(0, header_end + 4 + content_length);
  result.complete = true;
  return result;
}

/// One request through the project's HTTP client (cluster::HttpClient);
/// the raw-socket helpers above stay for the framing, keep-alive and
/// disconnect tests. A transport failure fails the test and yields status 0.
ClientResult Fetch(uint16_t port, const std::string& method,
                   const std::string& path, const std::string& body = "") {
  cluster::HttpClientResponse response;
  std::string error;
  EXPECT_TRUE(cluster::HttpClient(/*timeout_ms=*/60000)
                  .Request(method, "127.0.0.1", port, path, body, {},
                           &response, &error))
      << method << " " << path << ": " << error;
  return ClientResult{response.status, response.body};
}

util::JsonValue ParseBody(const ClientResult& result) {
  std::string error;
  auto json = util::JsonValue::Parse(result.body, &error);
  EXPECT_TRUE(json.has_value()) << error << "\nbody: " << result.body;
  return json.value_or(util::JsonValue());
}

std::vector<Count> NumbersFrom(const util::JsonValue& json) {
  std::vector<Count> numbers;
  const util::JsonValue* array = json.Find("numbers");
  EXPECT_NE(array, nullptr);
  if (array == nullptr) return numbers;
  for (const util::JsonValue& item : array->Items()) {
    numbers.push_back(item.AsUint());
  }
  return numbers;
}

/// Everything a serving test needs, wired and started on an ephemeral port.
struct TestServer {
  explicit TestServer(const ServiceOptions& service_options = {},
                      int http_threads = 4,
                      HttpServerOptions http_options = {})
      : service(registry, service_options) {
    HttpServerOptions options = http_options;
    options.num_threads = http_threads;
    server = std::make_unique<HttpServer>(options);
    frontend =
        std::make_unique<DecompositionHttpFrontend>(registry, service, *server);
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
  }
  ~TestServer() {
    server->Stop();
    service.Shutdown();
  }
  uint16_t port() const { return server->port(); }

  GraphRegistry registry;
  DecompositionService service;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<DecompositionHttpFrontend> frontend;
};

TEST(HttpServerTest, DecomposeMatchesDirectDriverBitIdentically) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult result = Fetch(
      ts.port(), "POST", "/v1/decompose",
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT",)"
      R"( "partitions": 6, "threads": 2})");
  ASSERT_EQ(result.status, 200);
  const util::JsonValue json = ParseBody(result);
  std::string status;
  ASSERT_TRUE(json.GetString("status", &status));
  EXPECT_EQ(status, "ok");

  TipOptions direct;
  direct.num_threads = 2;
  direct.num_partitions = 6;
  const std::vector<Count> expected =
      ReceiptDecompose(G1(), direct).tip_numbers;
  EXPECT_EQ(NumbersFrom(json), expected);

  // The stats object rides along with real counters: one key per PeelStats
  // field, named as in the field table.
  const util::JsonValue* stats = json.Find("stats");
  ASSERT_NE(stats, nullptr);
  ForEachPeelStatsField([&](const char* name, auto, StatFold) {
    EXPECT_NE(stats->Find(name), nullptr) << name;
  });
  EXPECT_NE(stats->Find("incremental_ranges_reused"), nullptr);
  EXPECT_EQ(stats->Find("scan_cost_per_element"), nullptr);
}

TEST(HttpServerTest, WingDecomposeMatchesDirectDriver) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult result =
      Fetch(ts.port(), "POST", "/v1/decompose",
            R"({"graph": "g1", "kind": "wing", "algo": "WING-BUP"})");
  ASSERT_EQ(result.status, 200);
  const std::vector<Count> expected = WingDecompose(G1(), 1).wing_numbers;
  EXPECT_EQ(NumbersFrom(ParseBody(result)), expected);
}

TEST(HttpServerTest, RegisterListAndEpochBump) {
  TestServer ts;
  const std::string path = testing::TempDir() + "/http_g1.konect";
  ASSERT_TRUE(SaveKonect(G1(), path));

  const ClientResult first =
      Fetch(ts.port(), "POST", "/v1/graphs",
            R"({"name": "g", "path": ")" + path + R"("})");
  ASSERT_EQ(first.status, 200);
  const util::JsonValue first_json = ParseBody(first);
  const util::JsonValue* epoch1 = first_json.Find("epoch");
  ASSERT_NE(epoch1, nullptr);

  // Re-registering the same name must install a fresh, higher epoch.
  const ClientResult second =
      Fetch(ts.port(), "POST", "/v1/graphs",
            R"({"name": "g", "path": ")" + path + R"("})");
  ASSERT_EQ(second.status, 200);
  const util::JsonValue second_json = ParseBody(second);
  EXPECT_GT(second_json.Find("epoch")->AsUint(), epoch1->AsUint());

  const ClientResult list = Fetch(ts.port(), "GET", "/v1/graphs");
  ASSERT_EQ(list.status, 200);
  const util::JsonValue list_json = ParseBody(list);
  const util::JsonValue* graphs = list_json.Find("graphs");
  ASSERT_NE(graphs, nullptr);
  ASSERT_EQ(graphs->Items().size(), 1u);
  std::string name;
  EXPECT_TRUE(graphs->Items()[0].GetString("name", &name));
  EXPECT_EQ(name, "g");
  EXPECT_EQ(graphs->Items()[0].Find("num_u")->AsUint(), G1().num_u());
}

TEST(HttpServerTest, BadRequestsGetFourHundreds) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  // Malformed JSON body.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", "{not json").status,
            400);
  // Valid JSON, missing required field.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", R"({"kind":"tip-U"})")
                .status,
            400);
  // Unknown enum value.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                  R"({"graph":"g1","kind":"edge"})")
                .status,
            400);
  // Kind/algorithm mismatch is the service's kBadRequest.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                  R"({"graph":"g1","kind":"wing","algo":"RECEIPT"})")
                .status,
            400);
  // Unknown graph → 404, as is an unknown route.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", R"({"graph":"nope"})")
                .status,
            404);
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v2/decompose").status, 404);
  // Known path, wrong method.
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v1/decompose").status, 405);
}

TEST(HttpServerTest, FullQueueRejectsWith429) {
  // No workers and a single queue slot: the first request parks in the
  // queue, the second must be turned away at admission.
  ServiceOptions options;
  options.num_workers = 0;
  options.queue_capacity = 1;
  options.cache_bytes = 0;
  TestServer ts(options);
  ts.registry.Register("g1", G1());
  ts.registry.Register("g2", G2());

  std::thread first_client([&] {
    const ClientResult result =
        Fetch(ts.port(), "POST", "/v1/decompose",
              R"({"graph": "g1", "kind": "tip-U", "algo": "BUP"})");
    EXPECT_EQ(result.status, 200);
  });
  // Wait until the first request occupies the queue slot.
  while (ts.service.QueueDepth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const ClientResult rejected =
      Fetch(ts.port(), "POST", "/v1/decompose",
            R"({"graph": "g2", "kind": "tip-U", "algo": "BUP"})");
  EXPECT_EQ(rejected.status, 429);
  EXPECT_EQ(ts.frontend->stats().rejected_busy, 1u);

  // Drain the queue so the parked client resolves.
  ts.service.RunQueuedInline();
  first_client.join();
}

TEST(HttpServerTest, ClientDisconnectCancelsTheRun) {
  ServiceOptions options;
  options.num_workers = 0;  // keep the request queued while we vanish
  options.cache_bytes = 0;
  TestServer ts(options);
  ts.registry.Register("g1", G1());

  const int fd = SendRequest(
      ts.port(), "POST", "/v1/decompose",
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT"})");
  // Wait for the handler to pick the request up and queue it, then vanish.
  while (ts.service.QueueDepth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(fd);

  // The handler's disconnect poll abandons the ticket, which cancels the
  // queued task's PeelControl (no coalesced twin holds it alive).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.service.stats().abandoned < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "handler never noticed the disconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ts.frontend->stats().disconnect_cancels, 1u);

  // Executing the queue now resolves the task as cancelled without an
  // engine run.
  ts.service.RunQueuedInline();
  EXPECT_EQ(ts.service.stats().cancelled, 1u);
  EXPECT_EQ(ts.service.stats().engine_runs, 0u);
}

TEST(HttpServerTest, GracefulShutdownDrainsInFlightRequests) {
  ServiceOptions options;
  options.num_workers = 1;
  TestServer ts(options);
  ts.registry.Register("g1", G1());

  std::thread client([&] {
    const ClientResult result = Fetch(
        ts.port(), "POST", "/v1/decompose",
        R"({"graph": "g1", "kind": "tip-V", "algo": "RECEIPT",)"
        R"( "partitions": 6, "threads": 2})");
    // The response must arrive complete despite Stop() racing the run.
    EXPECT_EQ(result.status, 200);
    std::string status;
    EXPECT_TRUE(ParseBody(result).GetString("status", &status));
    EXPECT_EQ(status, "ok");
  });
  // Let the request reach the service before stopping.
  while (ts.service.stats().submitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ts.server->Stop();  // drains: joins handlers only after responses are out
  client.join();

  // Post-shutdown connections are refused — the listener is gone.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
}

TEST(HttpServerTest, TransportRejectsMalformedFraming) {
  TestServer ts;
  auto raw = [&](const std::string& request, bool half_close = false) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ts.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    // half_close: signal EOF to the server while still reading the
    // response, so truncated requests fail fast instead of timing out.
    if (half_close) ::shutdown(fd, SHUT_WR);
    ClientResult result = ReadResponse(fd);
    ::close(fd);
    return result;
  };

  // Negative / overflowing / non-numeric Content-Length: a malformed
  // header (400), never misread as an oversized body (413).
  for (const char* length : {"-1", "18446744073709551616", "12abc", ""}) {
    const ClientResult result =
        raw("GET /healthz HTTP/1.1\r\nContent-Length: " +
            std::string(length) + "\r\n\r\n");
    EXPECT_EQ(result.status, 400) << "Content-Length: " << length;
  }
  // Garbage request line.
  EXPECT_EQ(raw("NOT-HTTP\r\n\r\n").status, 400);
  // Client hangs up with the body short of Content-Length.
  const ClientResult truncated = raw(
      "POST /v1/decompose HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"gr",
      /*half_close=*/true);
  EXPECT_EQ(truncated.status, 400);
}

TEST(HttpServerTest, HealthzAndStatzReportServingState) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult health = Fetch(ts.port(), "GET", "/healthz");
  ASSERT_EQ(health.status, 200);
  std::string status;
  ASSERT_TRUE(ParseBody(health).GetString("status", &status));
  EXPECT_EQ(status, "ok");

  // Two identical decompositions: the second must be a cache hit, and
  // /statz must reflect it.
  const std::string body =
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT"})";
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", body).status, 200);
  const ClientResult repeat = Fetch(ts.port(), "POST", "/v1/decompose", body);
  EXPECT_EQ(repeat.status, 200);
  EXPECT_TRUE(ParseBody(repeat).Find("cache_hit")->AsBool());

  const ClientResult statz = Fetch(ts.port(), "GET", "/statz");
  ASSERT_EQ(statz.status, 200);
  const util::JsonValue json = ParseBody(statz);
  const util::JsonValue* queue = json.Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->Find("capacity")->AsUint(), ts.service.queue_capacity());
  const util::JsonValue* requests = json.Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->Find("engine_runs")->AsUint(), 1u);
  EXPECT_GE(requests->Find("cache_hits")->AsUint(), 1u);
  const util::JsonValue* cache = json.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->Find("hit_rate")->AsDouble(), 0.0);
  const util::JsonValue* workers = json.Find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->Find("total")->AsUint(), 2u);
}

TEST(HttpServerTest, EdgeUpdateSealMatchesDirectDecomposeOfFinalGraph) {
  ServiceOptions options;
  options.num_workers = 1;
  TestServer ts(options);
  const BipartiteGraph before = G1();
  ts.registry.Register("g1", G1());

  // Mutate: delete two existing edges, insert two absent ones.
  std::vector<BipartiteGraph::Edge> edges = before.ToEdges();
  const BipartiteGraph::Edge dead1 = edges[3];
  const BipartiteGraph::Edge dead2 = edges[edges.size() / 2];
  auto exists = [&](VertexId u, VertexId v) {
    return std::find_if(edges.begin(), edges.end(),
                        [&](const BipartiteGraph::Edge& e) {
                          return e.u == u && e.v == v;
                        }) != edges.end();
  };
  std::vector<BipartiteGraph::Edge> inserted;
  for (VertexId u = 0; u < before.num_u() && inserted.size() < 2; ++u) {
    for (VertexId v = 0; v < before.num_v() && inserted.size() < 2; ++v) {
      if (!exists(u, v)) inserted.push_back({u, v});
    }
  }
  ASSERT_EQ(inserted.size(), 2u);

  std::string batch = R"({"seal": true, "threads": 2,)"
                      R"( "track": [{"kind": "tip-U", "partitions": 6}],)"
                      R"( "edges": [)";
  auto edge_json = [](const char* op, const BipartiteGraph::Edge& e) {
    return std::string("{\"op\":\"") + op +
           "\",\"u\":" + std::to_string(e.u) +
           ",\"v\":" + std::to_string(e.v) + "}";
  };
  batch += edge_json("delete", dead1) + "," + edge_json("delete", dead2) +
           "," + edge_json("insert", inserted[0]) + "," +
           edge_json("insert", inserted[1]) + "]}";

  const ClientResult sealed =
      Fetch(ts.port(), "POST", "/v1/graphs/g1/edges", batch);
  ASSERT_EQ(sealed.status, 200) << sealed.body;
  const util::JsonValue seal_json = ParseBody(sealed);
  EXPECT_TRUE(seal_json.Find("sealed")->AsBool());
  EXPECT_EQ(seal_json.Find("accepted")->AsUint(), 4u);
  EXPECT_EQ(seal_json.Find("pending")->AsUint(), 0u);
  const util::JsonValue* runs = seal_json.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->Items().size(), 1u);
  EXPECT_GT(runs->Items()[0].Find("subsets_total")->AsUint(), 0u);

  // The post-seal decompose must be a cache hit (primed at seal) and
  // bit-identical to a from-scratch decomposition of the final graph.
  const ClientResult result = Fetch(
      ts.port(), "POST", "/v1/decompose",
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT",)"
      R"( "partitions": 6, "threads": 2})");
  ASSERT_EQ(result.status, 200);
  const util::JsonValue json = ParseBody(result);
  EXPECT_TRUE(json.Find("cache_hit")->AsBool());

  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [&](const BipartiteGraph::Edge& e) {
                               return (e.u == dead1.u && e.v == dead1.v) ||
                                      (e.u == dead2.u && e.v == dead2.v);
                             }),
              edges.end());
  edges.push_back(inserted[0]);
  edges.push_back(inserted[1]);
  const BipartiteGraph after =
      BipartiteGraph::FromEdges(before.num_u(), before.num_v(), edges);
  TipOptions direct;
  direct.num_threads = 2;
  direct.num_partitions = 6;
  EXPECT_EQ(NumbersFrom(json), ReceiptDecompose(after, direct).tip_numbers);

  // Out-of-shape endpoints reject the whole batch: growing needs a
  // re-registration, not a live update.
  const ClientResult rejected = Fetch(
      ts.port(), "POST", "/v1/graphs/g1/edges",
      R"({"edges": [{"op": "insert", "u": 99999, "v": 0}]})");
  EXPECT_EQ(rejected.status, 400);
  // Unknown graphs are 404s.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/graphs/nope/edges",
                  R"({"edges": []})")
                .status,
            404);
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const int fd = ConnectLoopback(ts.port());
  for (int i = 0; i < 5; ++i) {
    SendOnSocket(fd, "GET", "/healthz", "");
    const FramedResult result = ReadFramedResponse(fd);
    ASSERT_TRUE(result.complete) << "connection dropped on request " << i;
    EXPECT_EQ(result.status, 200);
    EXPECT_NE(result.headers.find("Connection: keep-alive"),
              std::string::npos);
  }
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 4u);
  EXPECT_EQ(ts.server->stats().requests, 5u);
  EXPECT_EQ(ts.server->stats().connections_accepted, 1u);
}

TEST(HttpServerTest, PipelinedRequestsAllGetResponses) {
  TestServer ts;
  const int fd = ConnectLoopback(ts.port());
  // Two complete requests in one write: the second is served from the
  // carried-over buffer without waiting on the socket.
  const std::string one =
      "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  const std::string two = one + one;
  ASSERT_EQ(::send(fd, two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  std::string carry;
  EXPECT_TRUE(ReadFramedResponse(fd, &carry).complete);
  EXPECT_TRUE(ReadFramedResponse(fd, &carry).complete);
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 1u);
}

TEST(HttpServerTest, ConnectionCloseHeaderIsHonored) {
  TestServer ts;
  const int fd = ConnectLoopback(ts.port());
  SendOnSocket(fd, "GET", "/healthz", "", "Connection: close\r\n");
  const FramedResult result = ReadFramedResponse(fd);
  ASSERT_TRUE(result.complete);
  EXPECT_NE(result.headers.find("Connection: close"), std::string::npos);
  // EOF follows: the server closed its side.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 0u);
}

TEST(HttpServerTest, Http10DefaultsToClose) {
  TestServer ts;
  const int fd = ConnectLoopback(ts.port());
  const std::string request =
      "GET /healthz HTTP/1.0\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const FramedResult result = ReadFramedResponse(fd);
  ASSERT_TRUE(result.complete);
  EXPECT_NE(result.headers.find("Connection: close"), std::string::npos);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

TEST(HttpServerTest, RequestCapClosesTheConnection) {
  HttpServerOptions http_options;
  http_options.max_requests_per_connection = 3;
  TestServer ts({}, 4, http_options);

  const int fd = ConnectLoopback(ts.port());
  for (int i = 0; i < 3; ++i) {
    SendOnSocket(fd, "GET", "/healthz", "");
    const FramedResult result = ReadFramedResponse(fd);
    ASSERT_TRUE(result.complete);
    // The final allowed request carries the close advisory.
    const char* expected =
        i == 2 ? "Connection: close" : "Connection: keep-alive";
    EXPECT_NE(result.headers.find(expected), std::string::npos) << i;
  }
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // over the cap: connection gone
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 2u);
}

TEST(HttpServerTest, IdleKeepAliveConnectionTimesOutSilently) {
  HttpServerOptions http_options;
  http_options.idle_timeout_ms = 50;
  TestServer ts({}, 4, http_options);

  const int fd = ConnectLoopback(ts.port());
  SendOnSocket(fd, "GET", "/healthz", "");
  ASSERT_TRUE(ReadFramedResponse(fd).complete);
  // Sit idle past the timeout: the server closes without writing anything
  // (no 408 — no request was in flight).
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  EXPECT_EQ(n, 0);
  ::close(fd);
  EXPECT_EQ(ts.server->stats().parse_failures, 0u);
}

// The writer/parser pair the wire format rests on: round-trip sanity.
TEST(JsonTest, WriterAndParserRoundTrip) {
  util::JsonWriter writer;
  writer.BeginObject()
      .Key("text").String("line\n\"quoted\" \\ tab\t")
      .Key("big").Uint(3000000000000ull)
      .Key("neg").Int(-42)
      .Key("pi").Double(3.25)
      .Key("yes").Bool(true)
      .Key("nothing").Null()
      .Key("list").BeginArray().Uint(1).Uint(2).Uint(3).EndArray()
      .EndObject();

  std::string error;
  const auto parsed = util::JsonValue::Parse(writer.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("text")->AsString(), "line\n\"quoted\" \\ tab\t");
  EXPECT_EQ(parsed->Find("big")->AsUint(), 3000000000000ull);
  EXPECT_EQ(parsed->Find("neg")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(parsed->Find("pi")->AsDouble(), 3.25);
  EXPECT_TRUE(parsed->Find("yes")->AsBool());
  EXPECT_TRUE(parsed->Find("nothing")->IsNull());
  EXPECT_EQ(parsed->Find("list")->Items().size(), 3u);
}

TEST(JsonTest, IntegersBeyondInt64StayExactThroughAsUintOnly) {
  const auto parsed =
      util::JsonValue::Parse(R"({"huge": 18446744073709551615})");
  ASSERT_TRUE(parsed.has_value());
  const util::JsonValue* huge = parsed->Find("huge");
  ASSERT_NE(huge, nullptr);
  EXPECT_TRUE(huge->IsInt());
  EXPECT_EQ(huge->AsUint(), 18446744073709551615ull);
  // Not int64-representable: the typed accessor must refuse, not truncate.
  int64_t out = 0;
  EXPECT_FALSE(parsed->GetInt("huge", &out));
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01x", "\"unterminated",
        "{\"a\":1} trailing", "[\"\\q\"]", "007", "-01",
        // Lone surrogates would decode to invalid UTF-8 — rejected.
        "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800x\""}) {
    std::string error;
    EXPECT_FALSE(util::JsonValue::Parse(bad, &error).has_value())
        << "accepted: " << bad;
    EXPECT_FALSE(error.empty());
  }
  // Depth bomb: fails cleanly instead of blowing the stack.
  EXPECT_FALSE(
      util::JsonValue::Parse(std::string(10000, '[')).has_value());
}

}  // namespace
}  // namespace receipt::server
