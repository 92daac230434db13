#include "cluster/router.h"

#include <chrono>
#include <condition_variable>
#include <utility>

#include "obs/trace.h"
#include "server/decomposition_http.h"
#include "util/json.h"

namespace receipt::cluster {

namespace {

using server::GraphNameFromBody;
using server::GraphNameFromEdgesPath;
using server::HttpRequest;
using server::HttpResponse;
using server::JsonError;
using server::QueryParam;

std::string ClientId(const HttpRequest& request) {
  const auto it = request.headers.find("x-client-id");
  return it == request.headers.end() ? "anon" : it->second;
}

/// The request id this hop propagates: the client's X-Request-Id
/// verbatim, or a freshly minted one.
std::string RequestId(const HttpRequest& request) {
  const auto it = request.headers.find("x-request-id");
  if (it != request.headers.end() && !it->second.empty()) return it->second;
  return obs::FormatTraceId(obs::MintTraceId());
}

uint64_t EpochFromResponse(const std::string& body, std::string_view field) {
  const auto json = util::JsonValue::Parse(body);
  if (!json.has_value() || !json->IsObject()) return 0;
  const util::JsonValue* epoch = json->Find(std::string(field));
  return epoch != nullptr && epoch->IsInt() ? epoch->AsUint() : 0;
}

HttpResponse RelayUpstream(HttpClientResponse upstream,
                           const std::string& request_id) {
  HttpResponse response;
  response.status = upstream.status;
  response.body = std::move(upstream.body);
  if (const auto it = upstream.headers.find("content-type");
      it != upstream.headers.end()) {
    response.content_type = it->second;
  }
  if (const auto it = upstream.headers.find("retry-after");
      it != upstream.headers.end()) {
    response.extra_headers.emplace_back("Retry-After", it->second);
  }
  response.extra_headers.emplace_back("X-Request-Id", request_id);
  return response;
}

/// Statuses worth trying another replica for: the replica is down,
/// behind the monotonic floor, or shedding load — another holder may
/// answer. Semantic statuses (200, 400, 404...) are relayed as-is.
bool ShouldFailOver(int status) {
  return status == 412 || status == 429 || status >= 500;
}

}  // namespace

Router::Router(std::vector<ClusterMember> members,
               const RouterOptions& options)
    : options_(options),
      ring_([&members] {
        std::vector<std::string> ids;
        ids.reserve(members.size());
        for (const ClusterMember& m : members) ids.push_back(m.id);
        return ids;
      }()),
      client_(options.peer_timeout_ms),
      server_(options.http) {
  for (ClusterMember& member : members) {
    auto entry = std::make_unique<Member>();
    entry->endpoint = std::move(member);
    members_[entry->endpoint.id] = std::move(entry);
  }
  server_.Handle("POST", "/v1/decompose", [this](const HttpRequest& r) {
    return HandleDecompose(r);
  });
  server_.Handle("POST", "/v1/graphs", [this](const HttpRequest& r) {
    return HandleWrite(r);
  });
  server_.HandlePrefix("POST", "/v1/graphs/", [this](const HttpRequest& r) {
    return HandleWrite(r);
  });
  server_.Handle("GET", "/v1/graphs", [this](const HttpRequest& r) {
    return HandleListGraphs(r);
  });
  server_.Handle("GET", "/healthz", [this](const HttpRequest& r) {
    return HandleHealthz(r);
  });
  server_.Handle("GET", "/statz", [this](const HttpRequest& r) {
    return HandleStatz(r);
  });
  server_.Handle("GET", "/v1/cluster/route", [this](const HttpRequest& r) {
    return HandleRoute(r);
  });
}

Router::~Router() { Stop(); }

bool Router::Start(std::string* error) {
  if (!options_.trace_log_path.empty() &&
      !trace_log_.Open(options_.trace_log_path, error)) {
    return false;
  }
  if (!server_.Start(error)) return false;
  if (options_.health_interval_ms > 0) {
    prober_ = std::thread([this] { ProbeLoop(); });
  }
  return true;
}

void Router::Stop() {
  if (stopping_.exchange(true)) return;
  server_.Stop();
  if (prober_.joinable()) prober_.join();
}

uint16_t Router::port() const { return server_.port(); }

Router::Stats Router::stats() const {
  Stats s;
  s.reads_routed = reads_routed_.load(std::memory_order_relaxed);
  s.writes_routed = writes_routed_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.no_replica = no_replica_.load(std::memory_order_relaxed);
  s.trace_records = trace_log_.records_written();
  for (const auto& [id, member] : members_) {
    if (member->healthy.load(std::memory_order_relaxed)) {
      ++s.healthy_replicas;
    }
  }
  return s;
}

bool Router::Forward(
    Member& member, const HttpRequest& request,
    const std::vector<std::pair<std::string, std::string>>& headers,
    HttpClientResponse* upstream) {
  std::string target = request.path;
  if (!request.query.empty()) target += "?" + request.query;
  std::string error;
  if (!client_.Request(request.method, member.endpoint.host,
                       member.endpoint.port, target, request.body, headers,
                       upstream, &error)) {
    member.healthy.store(false, std::memory_order_relaxed);
    return false;
  }
  member.healthy.store(true, std::memory_order_relaxed);
  return true;
}

uint64_t Router::KnownMinEpoch(const std::string& graph) const {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  const auto it = epochs_.find(graph);
  return it == epochs_.end() ? 0 : it->second;
}

void Router::ObserveEpoch(const std::string& graph, uint64_t epoch) {
  if (epoch == 0) return;
  std::lock_guard<std::mutex> lock(epochs_mu_);
  uint64_t& known = epochs_[graph];
  if (epoch > known) known = epoch;
}

void Router::RecordTrace(const HttpRequest& request,
                         const std::string& request_id, bool read,
                         const std::string& graph, uint64_t epoch) {
  if (!trace_log_.enabled()) return;
  obs::ClientTraceRecord record;
  record.client = ClientId(request);
  record.read = read;
  record.graph = graph;
  record.epoch = epoch;
  record.request_id = request_id;
  trace_log_.Record(record);
}

HttpResponse Router::HandleDecompose(const HttpRequest& request) {
  const std::string graph = GraphNameFromBody(request.body, "graph");
  if (graph.empty()) {
    return JsonError(400, "missing required string field 'graph'");
  }
  const std::string request_id = RequestId(request);
  const uint64_t min_epoch = KnownMinEpoch(graph);

  std::vector<std::pair<std::string, std::string>> headers;
  headers.emplace_back("X-Request-Id", request_id);
  headers.emplace_back("X-Client-Id", ClientId(request));
  if (min_epoch != 0) {
    headers.emplace_back("X-Cluster-Min-Epoch", std::to_string(min_epoch));
  }

  const std::vector<std::string> holders =
      ring_.Holders(graph, options_.replication_factor);
  if (holders.empty()) return JsonError(503, "cluster has no members");

  // Round-robin start, two passes: healthy candidates first, then the
  // rest — a replica marked down may be back before the prober notices.
  const size_t start = rr_.fetch_add(1, std::memory_order_relaxed);
  std::optional<HttpResponse> last_response;
  for (const bool healthy_only : {true, false}) {
    for (size_t i = 0; i < holders.size(); ++i) {
      Member* member =
          members_[holders[(start + i) % holders.size()]].get();
      if (member == nullptr || member->endpoint.port == 0) continue;
      if (healthy_only !=
          member->healthy.load(std::memory_order_relaxed)) {
        continue;
      }
      HttpClientResponse upstream;
      if (!Forward(*member, request, headers, &upstream)) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (ShouldFailOver(upstream.status)) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        last_response = RelayUpstream(std::move(upstream), request_id);
        continue;
      }
      reads_routed_.fetch_add(1, std::memory_order_relaxed);
      if (upstream.status == 200) {
        const uint64_t epoch =
            EpochFromResponse(upstream.body, "graph_epoch");
        ObserveEpoch(graph, epoch);
        RecordTrace(request, request_id, /*read=*/true, graph, epoch);
      }
      return RelayUpstream(std::move(upstream), request_id);
    }
  }
  no_replica_.fetch_add(1, std::memory_order_relaxed);
  if (last_response.has_value()) return std::move(*last_response);
  return JsonError(503, "no replica holding '" + graph + "' is reachable");
}

HttpResponse Router::HandleWrite(const HttpRequest& request) {
  std::string graph = GraphNameFromEdgesPath(request.path);
  if (request.path == "/v1/graphs") {
    graph = GraphNameFromBody(request.body, "name");
  }
  if (graph.empty()) {
    return JsonError(400, "cannot determine the target graph");
  }
  const std::string request_id = RequestId(request);
  const std::string owner = ring_.Owner(graph);
  Member* member = nullptr;
  if (const auto it = members_.find(owner); it != members_.end()) {
    member = it->second.get();
  }
  if (member == nullptr || member->endpoint.port == 0) {
    return JsonError(503, "no endpoint for shard owner '" + owner + "'");
  }

  std::vector<std::pair<std::string, std::string>> headers;
  headers.emplace_back("X-Request-Id", request_id);
  headers.emplace_back("X-Client-Id", ClientId(request));

  HttpClientResponse upstream;
  if (!Forward(*member, request, headers, &upstream)) {
    no_replica_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(503, "shard owner '" + owner + "' for '" + graph +
                              "' is unreachable");
  }
  writes_routed_.fetch_add(1, std::memory_order_relaxed);
  if (upstream.status == 200) {
    const uint64_t epoch = EpochFromResponse(upstream.body, "epoch");
    ObserveEpoch(graph, epoch);
    RecordTrace(request, request_id, /*read=*/false, graph, epoch);
  }
  return RelayUpstream(std::move(upstream), request_id);
}

HttpResponse Router::HandleListGraphs(const HttpRequest& request) {
  const std::string request_id = RequestId(request);
  for (const bool healthy_only : {true, false}) {
    for (const auto& [id, member] : members_) {
      if (member->endpoint.port == 0) continue;
      if (healthy_only !=
          member->healthy.load(std::memory_order_relaxed)) {
        continue;
      }
      HttpClientResponse upstream;
      if (Forward(*member, request, {{"X-Request-Id", request_id}},
                  &upstream)) {
        return RelayUpstream(std::move(upstream), request_id);
      }
    }
  }
  return JsonError(503, "no replica is reachable");
}

HttpResponse Router::HandleHealthz(const HttpRequest&) {
  const Stats s = stats();
  util::JsonWriter json;
  json.BeginObject()
      .Key("status").String("ok")
      .Key("role").String("router")
      .Key("healthy_replicas").Uint(s.healthy_replicas)
      .Key("replicas").Uint(members_.size())
      .EndObject();
  HttpResponse response;
  response.body = json.Take();
  return response;
}

HttpResponse Router::HandleStatz(const HttpRequest&) {
  const Stats s = stats();
  util::JsonWriter json;
  json.BeginObject()
      .Key("role").String("router")
      .Key("reads_routed").Uint(s.reads_routed)
      .Key("writes_routed").Uint(s.writes_routed)
      .Key("failovers").Uint(s.failovers)
      .Key("no_replica").Uint(s.no_replica)
      .Key("trace_records").Uint(s.trace_records)
      .Key("members").BeginArray();
  for (const auto& [id, member] : members_) {
    json.BeginObject()
        .Key("id").String(id)
        .Key("host").String(member->endpoint.host)
        .Key("port").Uint(member->endpoint.port)
        .Key("healthy")
        .Bool(member->healthy.load(std::memory_order_relaxed))
        .EndObject();
  }
  json.EndArray();
  json.Key("epochs").BeginObject();
  {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    for (const auto& [graph, epoch] : epochs_) {
      json.Key(graph).Uint(epoch);
    }
  }
  json.EndObject().EndObject();
  HttpResponse response;
  response.body = json.Take();
  return response;
}

HttpResponse Router::HandleRoute(const HttpRequest& request) {
  const std::string graph = QueryParam(request.query, "graph");
  if (graph.empty()) {
    return JsonError(400, "missing required query parameter 'graph'");
  }
  util::JsonWriter json;
  json.BeginObject()
      .Key("graph").String(graph)
      .Key("owner").String(ring_.Owner(graph))
      .Key("holders").BeginArray();
  for (const std::string& holder :
       ring_.Holders(graph, options_.replication_factor)) {
    json.String(holder);
  }
  json.EndArray().Key("endpoints").BeginObject();
  for (const auto& [id, member] : members_) {
    json.Key(id).String(member->endpoint.host + ":" +
                        std::to_string(member->endpoint.port));
  }
  json.EndObject().EndObject();
  HttpResponse response;
  response.body = json.Take();
  return response;
}

void Router::ProbeLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    for (const auto& [id, member] : members_) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (member->endpoint.port == 0) continue;
      HttpClientResponse response;
      std::string error;
      const bool ok = client_.Get(member->endpoint.host,
                                  member->endpoint.port, "/healthz",
                                  &response, &error) &&
                      response.status == 200;
      member->healthy.store(ok, std::memory_order_relaxed);
    }
    // Sliced sleep so Stop() is prompt without a condition variable.
    for (int waited = 0;
         waited < options_.health_interval_ms &&
         !stopping_.load(std::memory_order_relaxed);
         waited += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

}  // namespace receipt::cluster
