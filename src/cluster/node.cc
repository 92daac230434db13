#include "cluster/node.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <utility>

#include "graph/bipartite_graph.h"
#include "service/live_graph.h"
#include "util/json.h"

namespace receipt::cluster {

namespace {

using server::GraphNameFromBody;
using server::GraphNameFromEdgesPath;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpStatusFor;
using server::JsonError;
using server::QueryParam;

uint64_t MinEpochHeader(const HttpRequest& request) {
  const auto it = request.headers.find("x-cluster-min-epoch");
  if (it == request.headers.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Headers a proxied request carries onward: the end-to-end request id,
/// the client identity, and the router's monotonic-read floor.
std::vector<std::pair<std::string, std::string>> PropagatedHeaders(
    const HttpRequest& request) {
  std::vector<std::pair<std::string, std::string>> headers;
  for (const char* name :
       {"x-request-id", "x-client-id", "x-cluster-min-epoch"}) {
    if (const auto it = request.headers.find(name);
        it != request.headers.end()) {
      headers.emplace_back(name, it->second);
    }
  }
  return headers;
}

/// Reads the graph a cluster register or sync body carries: name, epoch,
/// shape and [u, v] edge pairs. The shape must fit the combined 32-bit
/// vertex space and every edge must lie inside it — the graph build
/// aborts on anything else, so a malformed body is refused here. False
/// with *error set on any violation.
bool ParseGraphBody(const util::JsonValue& json, std::string* name,
                    uint64_t* epoch, BipartiteGraph* graph,
                    std::string* error) {
  int64_t num_u = -1;
  int64_t num_v = -1;
  const util::JsonValue* epoch_json = json.Find("epoch");
  const util::JsonValue* edges = json.Find("edges");
  if (!json.GetString("name", name) || epoch_json == nullptr ||
      !epoch_json->IsInt() || !json.GetInt("num_u", &num_u) ||
      !json.GetInt("num_v", &num_v) || edges == nullptr ||
      !edges->IsArray()) {
    *error = "body needs name, epoch, num_u, num_v and [u,v] edge pairs";
    return false;
  }
  // Each side is bounded before the sum, so the sum cannot overflow.
  if (num_u < 0 || num_v < 0 || num_u >= kInvalidVertex ||
      num_v >= kInvalidVertex || num_u + num_v >= kInvalidVertex) {
    *error = "num_u + num_v must fit the 32-bit vertex space";
    return false;
  }
  const auto in_range = [](const util::JsonValue& id, int64_t limit) {
    return id.IsInt() && id.AsInt() >= 0 &&
           id.AsUint() < static_cast<uint64_t>(limit);
  };
  std::vector<BipartiteGraph::Edge> pairs;
  pairs.reserve(edges->Items().size());
  for (const util::JsonValue& item : edges->Items()) {
    if (!item.IsArray() || item.Items().size() != 2 ||
        !in_range(item.Items()[0], num_u) ||
        !in_range(item.Items()[1], num_v)) {
      *error = "edges must be [u,v] pairs inside the num_u x num_v shape";
      return false;
    }
    pairs.push_back({static_cast<VertexId>(item.Items()[0].AsUint()),
                     static_cast<VertexId>(item.Items()[1].AsUint())});
  }
  *epoch = epoch_json->AsUint();
  *graph = BipartiteGraph::FromEdges(static_cast<VertexId>(num_u),
                                     static_cast<VertexId>(num_v),
                                     std::move(pairs));
  return true;
}

/// {"status":"ok","graph":name,"epoch":epoch}: the cluster register and
/// sync acknowledgement.
HttpResponse OkResponse(const std::string& name, uint64_t epoch) {
  util::JsonWriter json;
  json.BeginObject()
      .Key("status").String("ok")
      .Key("graph").String(name)
      .Key("epoch").Uint(epoch)
      .EndObject();
  HttpResponse response;
  response.body = json.Take();
  return response;
}

void WriteEdgePairs(util::JsonWriter* json,
                    const std::vector<BipartiteGraph::Edge>& edges) {
  json->Key("edges").BeginArray();
  for (const BipartiteGraph::Edge& edge : edges) {
    json->BeginArray().Uint(edge.u).Uint(edge.v).EndArray();
  }
  json->EndArray();
}

}  // namespace

bool ParseClusterMembers(const std::string& spec,
                         std::vector<ClusterMember>* out,
                         std::string* error) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      if (pos > spec.size()) break;
      if (error != nullptr) *error = "empty member entry in '" + spec + "'";
      return false;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error != nullptr) {
        *error = "member entry '" + entry + "' is not id=host:port";
      }
      return false;
    }
    ClusterMember member;
    member.id = entry.substr(0, eq);
    std::string endpoint = entry.substr(eq + 1);
    const size_t colon = endpoint.rfind(':');
    if (colon != std::string::npos) {
      member.host = endpoint.substr(0, colon);
      endpoint = endpoint.substr(colon + 1);
    }
    char* parse_end = nullptr;
    const unsigned long port = std::strtoul(endpoint.c_str(), &parse_end, 10);
    if (endpoint.empty() || *parse_end != '\0' || port > 65535) {
      if (error != nullptr) {
        *error = "member entry '" + entry + "' has an invalid port";
      }
      return false;
    }
    member.port = static_cast<uint16_t>(port);
    out->push_back(std::move(member));
  }
  if (out->empty()) {
    if (error != nullptr) *error = "no cluster members in '" + spec + "'";
    return false;
  }
  return true;
}

ClusterNode::ClusterNode(const ClusterNodeOptions& options,
                         service::GraphRegistry& registry,
                         service::DecompositionService& service,
                         server::DecompositionHttpFrontend& frontend,
                         server::HttpServer& server)
    : options_(options),
      registry_(&registry),
      service_(&service),
      frontend_(&frontend),
      ring_([&options] {
        std::vector<std::string> ids;
        ids.reserve(options.members.size());
        for (const ClusterMember& m : options.members) ids.push_back(m.id);
        return ids;
      }()),
      client_(options.peer_timeout_ms) {
  for (const ClusterMember& member : options.members) {
    members_[member.id] = member;
  }

  server.Handle("POST", "/v1/decompose", [this](const HttpRequest& r) {
    return HandleDecompose(r);
  });
  server.Handle("GET", "/v1/graphs", [this](const HttpRequest& r) {
    return frontend_->HandleListGraphs(r);
  });
  server.Handle("POST", "/v1/graphs", [this](const HttpRequest& r) {
    return HandleRegister(r);
  });
  server.HandlePrefix("POST", "/v1/graphs/", [this](const HttpRequest& r) {
    return HandleEdges(r);
  });
  server.Handle("POST", "/v1/admin/snapshot", [this](const HttpRequest& r) {
    return frontend_->HandleAdminSnapshot(r);
  });
  server.Handle("GET", "/healthz", [this](const HttpRequest& r) {
    return frontend_->HandleHealthz(r);
  });
  server.Handle("GET", "/statz", [this](const HttpRequest& r) {
    return frontend_->HandleStatz(r);
  });
  server.Handle("GET", "/metrics", [this](const HttpRequest& r) {
    return frontend_->HandleMetrics(r);
  });
  server.Handle("GET", "/v1/traces", [this](const HttpRequest& r) {
    return frontend_->HandleTraces(r);
  });
  server.HandlePrefix("GET", "/v1/traces/", [this](const HttpRequest& r) {
    return frontend_->HandleTraceById(r);
  });
  server.Handle("POST", "/v1/cluster/register", [this](const HttpRequest& r) {
    return HandleClusterRegister(r);
  });
  server.Handle("POST", "/v1/cluster/edges", [this](const HttpRequest& r) {
    return HandleClusterEdges(r);
  });
  server.Handle("POST", "/v1/cluster/sync", [this](const HttpRequest& r) {
    return HandleClusterSync(r);
  });
  server.Handle("GET", "/v1/cluster/info", [this](const HttpRequest& r) {
    return HandleInfo(r);
  });
  server.Handle("GET", "/v1/cluster/route", [this](const HttpRequest& r) {
    return HandleRoute(r);
  });
}

void ClusterNode::SetMemberEndpoint(const std::string& id,
                                    const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(members_mu_);
  const auto it = members_.find(id);
  if (it == members_.end()) return;
  it->second.host = host;
  it->second.port = port;
}

ClusterMember ClusterNode::MemberById(const std::string& id) const {
  std::lock_guard<std::mutex> lock(members_mu_);
  const auto it = members_.find(id);
  return it == members_.end() ? ClusterMember{} : it->second;
}

bool ClusterNode::IsOwner(const std::string& graph) const {
  return ring_.Owner(graph) == options_.self_id;
}

std::vector<std::string> ClusterNode::HoldersOf(
    const std::string& graph) const {
  return ring_.Holders(graph, options_.replication_factor);
}

ClusterNode::Stats ClusterNode::stats() const {
  Stats s;
  s.local_reads = local_reads_.load(std::memory_order_relaxed);
  s.proxied = proxied_.load(std::memory_order_relaxed);
  s.redirected = redirected_.load(std::memory_order_relaxed);
  s.stale_rejects = stale_rejects_.load(std::memory_order_relaxed);
  s.replicated_out = replicated_out_.load(std::memory_order_relaxed);
  s.replication_failures =
      replication_failures_.load(std::memory_order_relaxed);
  s.chain_syncs = chain_syncs_.load(std::memory_order_relaxed);
  s.replicated_applies = replicated_applies_.load(std::memory_order_relaxed);
  return s;
}

HttpResponse ClusterNode::ForwardToMember(const std::string& member_id,
                                          const HttpRequest& request) {
  const ClusterMember member = MemberById(member_id);
  if (member.id.empty() || member.port == 0) {
    return JsonError(503, "no endpoint known for cluster member '" +
                              member_id + "'");
  }
  std::string target = request.path;
  if (!request.query.empty()) target += "?" + request.query;
  if (!options_.proxy) {
    redirected_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    response.status = 307;
    response.extra_headers.emplace_back(
        "Location", "http://" + member.host + ":" +
                        std::to_string(member.port) + target);
    util::JsonWriter json;
    json.BeginObject()
        .Key("status").String("redirect")
        .Key("owner").String(member.id)
        .EndObject();
    response.body = json.Take();
    return response;
  }
  HttpClientResponse upstream;
  std::string error;
  if (!client_.Request(request.method, member.host, member.port, target,
                       request.body, PropagatedHeaders(request), &upstream,
                       &error)) {
    return JsonError(503, "cluster member '" + member.id +
                              "' is unreachable: " + error);
  }
  proxied_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response;
  response.status = upstream.status;
  response.body = std::move(upstream.body);
  if (const auto it = upstream.headers.find("content-type");
      it != upstream.headers.end()) {
    response.content_type = it->second;
  }
  if (const auto it = upstream.headers.find("x-request-id");
      it != upstream.headers.end()) {
    response.extra_headers.emplace_back("X-Request-Id", it->second);
  }
  if (const auto it = upstream.headers.find("retry-after");
      it != upstream.headers.end()) {
    response.extra_headers.emplace_back("Retry-After", it->second);
  }
  return response;
}

HttpResponse ClusterNode::HandleDecompose(const HttpRequest& request) {
  const std::string graph = GraphNameFromBody(request.body, "graph");
  if (graph.empty()) return frontend_->HandleDecompose(request);

  if (const service::GraphHandle handle = registry_->Acquire(graph)) {
    // Monotonic reads: never serve below the client's known epoch. The
    // router fails over to a holder that has caught up (the owner always
    // qualifies — it minted the epoch).
    const uint64_t min_epoch = MinEpochHeader(request);
    if (min_epoch != 0 && handle.epoch() < min_epoch) {
      stale_rejects_.fetch_add(1, std::memory_order_relaxed);
      return JsonError(412, "replica '" + options_.self_id + "' holds '" +
                                graph + "' at epoch " +
                                std::to_string(handle.epoch()) +
                                ", below required " +
                                std::to_string(min_epoch));
    }
    local_reads_.fetch_add(1, std::memory_order_relaxed);
    return frontend_->HandleDecompose(request);
  }

  // Not resident here. A holder that simply never saw the registration
  // defers to the owner; a non-holder routes to the owner outright; the
  // owner itself answers the authoritative 404.
  const std::string owner = ring_.Owner(graph);
  if (owner == options_.self_id || owner.empty()) {
    return frontend_->HandleDecompose(request);
  }
  return ForwardToMember(owner, request);
}

HttpResponse ClusterNode::HandleRegister(const HttpRequest& request) {
  const std::string name = GraphNameFromBody(request.body, "name");
  if (name.empty()) return frontend_->HandleRegisterGraph(request);
  if (!IsOwner(name)) return ForwardToMember(ring_.Owner(name), request);

  std::lock_guard<std::mutex> lock(write_mu_);
  HttpResponse response = frontend_->HandleRegisterGraph(request);
  if (response.status == 200) ReplicateRegister(name);
  return response;
}

HttpResponse ClusterNode::HandleEdges(const HttpRequest& request) {
  const std::string name = GraphNameFromEdgesPath(request.path);
  if (name.empty()) return frontend_->HandleGraphEdges(request);
  if (!IsOwner(name)) return ForwardToMember(ring_.Owner(name), request);

  std::lock_guard<std::mutex> lock(write_mu_);
  const service::GraphHandle before = registry_->Acquire(name);
  const uint64_t expected_epoch = before ? before.epoch() : 0;
  // An unsealed batch leaves the epoch alone, so followers also check
  // their buffer against the owner's: one that missed an unsealed batch
  // answers 409 instead of sealing a different edge set at this epoch.
  const size_t expected_pending = service_->live().PendingEdges(name);

  HttpResponse response = frontend_->HandleGraphEdges(request);
  if (response.status != 200 || expected_epoch == 0) return response;

  // Mirror what the frontend just accepted. Both parses run the same
  // codec on the same body, so a parse failure here is unreachable on a
  // 200 — checked anyway to keep fan-out from shipping garbage.
  std::vector<service::EdgeUpdate> updates;
  std::string parse_error;
  const auto body_json = util::JsonValue::Parse(request.body);
  if (!body_json.has_value() || !body_json->IsObject() ||
      !service::EdgeUpdatesFromJson(*body_json, "edges", &updates,
                                    &parse_error)) {
    return response;
  }
  const auto response_json = util::JsonValue::Parse(response.body);
  bool sealed = false;
  uint64_t sealed_epoch = 0;
  int64_t threads = 0;
  if (response_json.has_value()) {
    response_json->GetBool("sealed", &sealed);
    if (const util::JsonValue* epoch = response_json->Find("epoch");
        epoch != nullptr && epoch->IsInt()) {
      sealed_epoch = epoch->AsUint();
    }
  }
  body_json->GetInt("threads", &threads);

  util::JsonWriter json;
  json.BeginObject()
      .Key("graph").String(name)
      .Key("expected_epoch").Uint(expected_epoch)
      .Key("expected_pending").Uint(expected_pending)
      .Key("seal").Bool(sealed)
      .Key("sealed_epoch").Uint(sealed ? sealed_epoch : 0)
      .Key("threads").Int(threads)
      .Key("edges");
  service::WriteEdgeUpdatesJson(updates, &json);
  json.EndObject();
  ReplicateEdges(name, json.Take());
  return response;
}

void ClusterNode::ReplicateRegister(const std::string& name) {
  const service::GraphHandle handle = registry_->Acquire(name);
  if (!handle) return;
  util::JsonWriter json;
  json.BeginObject()
      .Key("name").String(name)
      .Key("epoch").Uint(handle.epoch())
      .Key("num_u").Uint(handle.graph().num_u())
      .Key("num_v").Uint(handle.graph().num_v());
  WriteEdgePairs(&json, handle.graph().ToEdges());
  json.EndObject();
  const std::string body = json.Take();

  for (const std::string& holder : HoldersOf(name)) {
    if (holder == options_.self_id) continue;
    const ClusterMember member = MemberById(holder);
    if (member.port == 0) {
      replication_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    HttpClientResponse peer;
    std::string error;
    if (!client_.Post(member.host, member.port, "/v1/cluster/register", body,
                      {}, &peer, &error) ||
        peer.status != 200) {
      replication_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    replicated_out_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ClusterNode::ReplicateEdges(const std::string& name,
                                 const std::string& edges_json) {
  for (const std::string& holder : HoldersOf(name)) {
    if (holder == options_.self_id) continue;
    const ClusterMember member = MemberById(holder);
    if (member.port == 0) {
      replication_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    HttpClientResponse peer;
    std::string error;
    if (!client_.Post(member.host, member.port, "/v1/cluster/edges",
                      edges_json, {}, &peer, &error)) {
      // Down or unreachable: it will 409 on its next replicated batch
      // after rejoining, which triggers the sync below.
      replication_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (peer.status == 409) {
      // Diverged chain (the follower missed batches while down): catch it
      // up with the full current state instead of the incremental batch.
      chain_syncs_.fetch_add(1, std::memory_order_relaxed);
      if (SyncPeer(member, name)) {
        replicated_out_.fetch_add(1, std::memory_order_relaxed);
      } else {
        replication_failures_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (peer.status != 200) {
      replication_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    replicated_out_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ClusterNode::SyncPeer(const ClusterMember& member,
                           const std::string& name) {
  service::LiveGraphManager::ExportedState exported;
  if (!service_->live().ExportState(name, &exported)) return false;
  util::JsonWriter json;
  json.BeginObject()
      .Key("name").String(name)
      .Key("epoch").Uint(exported.epoch)
      .Key("num_u").Uint(exported.num_u)
      .Key("num_v").Uint(exported.num_v);
  WriteEdgePairs(&json, exported.edges);
  json.Key("pending");
  service::WriteEdgeUpdatesJson(exported.pending, &json);
  json.EndObject();

  HttpClientResponse peer;
  std::string error;
  return client_.Post(member.host, member.port, "/v1/cluster/sync",
                      json.Take(), {}, &peer, &error) &&
         peer.status == 200;
}

HttpResponse ClusterNode::HandleClusterRegister(const HttpRequest& request) {
  const auto json = util::JsonValue::Parse(request.body);
  if (!json.has_value() || !json->IsObject()) {
    return JsonError(400, "malformed cluster register body");
  }
  std::string name;
  uint64_t epoch = 0;
  BipartiteGraph graph;
  std::string error;
  if (!ParseGraphBody(*json, &name, &epoch, &graph, &error)) {
    return JsonError(400, "cluster register: " + error);
  }
  const service::Status status =
      service_->RegisterGraphAtEpoch(name, std::move(graph), epoch, &error);
  if (status != service::Status::kOk) {
    return JsonError(HttpStatusFor(status), error);
  }
  replicated_applies_.fetch_add(1, std::memory_order_relaxed);
  return OkResponse(name, epoch);
}

HttpResponse ClusterNode::HandleClusterEdges(const HttpRequest& request) {
  const auto json = util::JsonValue::Parse(request.body);
  if (!json.has_value() || !json->IsObject()) {
    return JsonError(400, "malformed cluster edges body");
  }
  std::string graph;
  const util::JsonValue* expected = json->Find("expected_epoch");
  const util::JsonValue* sealed_epoch = json->Find("sealed_epoch");
  // Absent from owners of earlier builds: the epoch check alone applies.
  const util::JsonValue* pending = json->Find("expected_pending");
  std::optional<size_t> expected_pending;
  if (pending != nullptr && pending->IsInt()) {
    expected_pending = static_cast<size_t>(pending->AsUint());
  }
  bool seal = false;
  int64_t threads = 0;
  std::vector<service::EdgeUpdate> updates;
  std::string error;
  if (!json->GetString("graph", &graph) || expected == nullptr ||
      !expected->IsInt()) {
    return JsonError(400, "cluster edges body needs graph, expected_epoch "
                          "and edges");
  }
  if (!service::EdgeUpdatesFromJson(*json, "edges", &updates, &error)) {
    return JsonError(400, "cluster edges: " + error);
  }
  json->GetBool("seal", &seal);
  json->GetInt("threads", &threads);

  const uint64_t expected_epoch = expected->AsUint();
  const service::ApplyResult result = service_->live().ApplyReplicated(
      graph, updates, seal, expected_epoch,
      sealed_epoch != nullptr && sealed_epoch->IsInt()
          ? sealed_epoch->AsUint()
          : 0,
      static_cast<int>(threads), expected_pending);
  if (result.status != service::Status::kOk) {
    // A rejected batch reports the local epoch and buffer length: either
    // one off the owner's means this replica diverged and needs the
    // owner's full-state sync.
    const bool chain_mismatch =
        result.status == service::Status::kBadRequest &&
        (result.epoch != expected_epoch ||
         (expected_pending.has_value() &&
          result.pending != *expected_pending));
    util::JsonWriter out;
    out.BeginObject()
        .Key("status").String("error")
        .Key("error").String(result.error)
        .Key("current_epoch").Uint(result.epoch)
        .EndObject();
    HttpResponse response;
    response.status = chain_mismatch ? 409 : HttpStatusFor(result.status);
    response.body = out.Take();
    return response;
  }
  replicated_applies_.fetch_add(1, std::memory_order_relaxed);
  util::JsonWriter out;
  out.BeginObject()
      .Key("status").String("ok")
      .Key("graph").String(graph)
      .Key("accepted").Uint(result.accepted)
      .Key("pending").Uint(result.pending)
      .Key("sealed").Bool(result.sealed)
      .Key("epoch").Uint(result.epoch)
      .EndObject();
  HttpResponse response;
  response.body = out.Take();
  return response;
}

HttpResponse ClusterNode::HandleClusterSync(const HttpRequest& request) {
  const auto json = util::JsonValue::Parse(request.body);
  if (!json.has_value() || !json->IsObject()) {
    return JsonError(400, "malformed cluster sync body");
  }
  std::string name;
  uint64_t epoch = 0;
  BipartiteGraph graph;
  std::vector<service::EdgeUpdate> pending;
  std::string error;
  if (!ParseGraphBody(*json, &name, &epoch, &graph, &error)) {
    return JsonError(400, "cluster sync: " + error);
  }
  if (json->Find("pending") != nullptr &&
      !service::EdgeUpdatesFromJson(*json, "pending", &pending, &error)) {
    return JsonError(400, "cluster sync: " + error);
  }
  // The pending updates must fit the synced shape: checked before the
  // registration is installed, so a bad body changes nothing.
  for (const service::EdgeUpdate& update : pending) {
    if (update.u >= graph.num_u() || update.v >= graph.num_v()) {
      return JsonError(400, "cluster sync: 'pending' lies outside the shape");
    }
  }

  const service::Status status =
      service_->RegisterGraphAtEpoch(name, std::move(graph), epoch, &error);
  if (status != service::Status::kOk) {
    return JsonError(HttpStatusFor(status), error);
  }
  if (!pending.empty()) {
    const service::ApplyResult result = service_->live().ApplyReplicated(
        name, pending, /*seal=*/false, epoch, 0, 0);
    if (result.status != service::Status::kOk) {
      return JsonError(HttpStatusFor(result.status), result.error);
    }
  }
  replicated_applies_.fetch_add(1, std::memory_order_relaxed);
  return OkResponse(name, epoch);
}

HttpResponse ClusterNode::HandleInfo(const HttpRequest&) {
  util::JsonWriter json;
  json.BeginObject()
      .Key("id").String(options_.self_id)
      .Key("replication").Uint(options_.replication_factor)
      .Key("proxy").Bool(options_.proxy)
      .Key("members").BeginArray();
  {
    std::lock_guard<std::mutex> lock(members_mu_);
    for (const auto& [id, member] : members_) {
      json.BeginObject()
          .Key("id").String(id)
          .Key("host").String(member.host)
          .Key("port").Uint(member.port)
          .EndObject();
    }
  }
  json.EndArray().Key("graphs").BeginArray();
  for (const std::string& name : registry_->Names()) {
    const service::GraphHandle handle = registry_->Acquire(name);
    if (!handle) continue;
    json.BeginObject()
        .Key("name").String(name)
        .Key("epoch").Uint(handle.epoch())
        .Key("owner").Bool(IsOwner(name))
        .EndObject();
  }
  json.EndArray();
  const Stats s = stats();
  json.Key("stats").BeginObject()
      .Key("local_reads").Uint(s.local_reads)
      .Key("proxied").Uint(s.proxied)
      .Key("redirected").Uint(s.redirected)
      .Key("stale_rejects").Uint(s.stale_rejects)
      .Key("replicated_out").Uint(s.replicated_out)
      .Key("replication_failures").Uint(s.replication_failures)
      .Key("chain_syncs").Uint(s.chain_syncs)
      .Key("replicated_applies").Uint(s.replicated_applies)
      .EndObject();
  json.EndObject();
  HttpResponse response;
  response.body = json.Take();
  return response;
}

HttpResponse ClusterNode::HandleRoute(const HttpRequest& request) {
  const std::string graph = QueryParam(request.query, "graph");
  if (graph.empty()) {
    return JsonError(400, "missing required query parameter 'graph'");
  }
  util::JsonWriter json;
  json.BeginObject()
      .Key("graph").String(graph)
      .Key("owner").String(ring_.Owner(graph))
      .Key("self").String(options_.self_id)
      .Key("holders").BeginArray();
  for (const std::string& holder : HoldersOf(graph)) json.String(holder);
  json.EndArray().EndObject();
  HttpResponse response;
  response.body = json.Take();
  return response;
}

}  // namespace receipt::cluster
