// churn-replicated: reads while writes arrive, on the replicated tier.
//
// A Router fronts two in-process durable replicas (ClusterNodes,
// replication 2, fsync=batch, snapshot on every seal). They serve one
// seeded Chung–Lu graph with tip-U live-tracked on both. One writer posts
// small seeded tail-churn batches with "seal":true through the router;
// two readers send tip-U requests (the seal primed the cache) and tip-V
// requests (a miss on every new epoch: engine runs and coalescing). All
// three run closed loop at threads:1, so busy threads stay within nproc.
//
// Afterwards both replicas must answer with numbers bit-identical to a
// from-scratch ReceiptDecompose of the final edge set, no replica may have
// needed a full-state chain sync, and a DecompositionService recovered
// from a copy of one replica's data dir must serve the same numbers.
//
// The traced run alternates untraced and traced slices. Traced reads carry
// X-Request-Id, so the replicas' own http.parse / queue.wait / engine.run
// spans are read back from their trace rings; the service and
// serialization layers of a cache hit are timed from outside
// (DecompositionService::Execute, service::WriteResponseJson) once the
// load stops, and transport is what remains of the client latency.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cluster/http_client.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "durability/manager.h"
#include "graph/graph_io.h"
#include "harness.h"
#include "obs/trace.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "tip/receipt.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using receipt::BipartiteGraph;
using receipt::cluster::HttpClient;
using receipt::cluster::HttpClientResponse;
using receipt::service::DecompositionService;
using receipt::service::RequestKind;

// Heavier skews than the baseline graph leave a long low-degree tail whose
// churn touches few ranges (the incremental path's scenario: about 125 of
// 150 ranges are replayed per seal). Sized so one seal takes about 0.3 s at
// one thread and a tip-V miss about 0.25 s on a 4-vCPU Xeon VM.
constexpr uint32_t kNumU = 40000;
constexpr uint32_t kNumV = 20000;
constexpr uint64_t kEdges = 250000;
constexpr double kAlphaU = 0.6;
constexpr double kAlphaV = 0.85;
/// Churned edges join vertices of at most this degree.
constexpr uint32_t kTailDegree = 3;
constexpr uint64_t kSeedSalt = 0x4348'5552;  // "CHUR"
constexpr int kBatchInserts = 8;
constexpr int kBatchDeletes = 8;
constexpr int kReaders = 2;
constexpr int kSetupRepeats = 3;
// A recovery takes well under 0.1 s, so its median needs many repeats:
// kRecoveriesPerPause after each of the untraced run's kLoadSlices.
constexpr int kLoadSlices = 5;
constexpr int kRecoveriesPerPause = 4;
constexpr int kRelayProbes = 40;
constexpr int kSnapshotRepeats = 3;
constexpr int kHitLayerRepeats = 40;
constexpr double kTracedSliceSeconds = 2.5;
constexpr const char* kGraph = "churn";
constexpr const char* kHost = "127.0.0.1";

/// A process-unique X-Request-Id value, so a trace-ring lookup never picks
/// up an earlier request's spans.
uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The JSON text the servers write for a numbers array.
std::string NumbersJson(const std::vector<uint64_t>& numbers) {
  receipt::util::JsonWriter json;
  json.BeginArray();
  for (const uint64_t n : numbers) json.Uint(n);
  json.EndArray();
  return json.Take();
}

/// The `"numbers":` array of a decompose response body as JSON text (the
/// text NumbersJson produces); empty when there is none.
std::string NumbersOf(const std::string& body) {
  constexpr std::string_view kKey = "\"numbers\":";
  const size_t start = body.find(kKey);
  const size_t end = body.find(']', start);
  if (start == std::string::npos || end == std::string::npos) return "";
  return body.substr(start + kKey.size(), end + 1 - start - kKey.size());
}

/// The numbers `service` serves for `kind`, as the JSON text the servers
/// write.
std::string ServedNumbers(DecompositionService& service, RequestKind kind) {
  receipt::service::Request request;
  request.graph = kGraph;
  request.kind = kind;
  request.threads = 2;
  const auto response = service.Execute(request);
  receipt::util::JsonWriter writer;
  receipt::service::WriteResponseJson(request, response, &writer);
  return NumbersOf(writer.str());
}

/// One replica's stack, as a replica process would run it.
struct Replica {
  std::string id;
  std::string data_dir;
  receipt::service::GraphRegistry registry;
  std::unique_ptr<DecompositionService> service;
  std::unique_ptr<receipt::server::HttpServer> server;
  std::unique_ptr<receipt::server::DecompositionHttpFrontend> frontend;
  std::unique_ptr<receipt::cluster::ClusterNode> node;

  ~Replica() { Stop(); }
  void Stop() {
    if (server) server->Stop();
    if (service) service->Shutdown(/*drain=*/true);
  }
  uint16_t port() const { return server->port(); }
};

receipt::service::ServiceOptions DurableOptions(const std::string& dir) {
  receipt::service::ServiceOptions options;
  options.data_dir = dir;
  options.durability_fsync = receipt::durability::FsyncPolicy::kBatch;
  return options;
}

using Edge = std::pair<uint32_t, uint32_t>;

/// The edge set as the benchmark expects the replicas to hold it.
struct Mirror {
  std::set<Edge> edges;
  std::vector<uint32_t> du = std::vector<uint32_t>(kNumU, 0);
  std::vector<uint32_t> dv = std::vector<uint32_t>(kNumV, 0);

  void Insert(const Edge& e) {
    if (edges.insert(e).second) ++du[e.first], ++dv[e.second];
  }
  void Erase(const Edge& e) {
    if (edges.erase(e) != 0) --du[e.first], --dv[e.second];
  }
};

/// The replicated deployment plus the benchmark's mirror of the edge set.
struct Cluster {
  std::string root;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<receipt::cluster::Router> router;
  Mirror mirror;  ///< the benchmark's copy of the sealed edge set

  ~Cluster() {
    if (router) router->Stop();
    for (auto& replica : replicas) replica->Stop();
    replicas.clear();
    std::error_code ec;
    if (!root.empty()) fs::remove_all(root, ec);
  }
  Replica& owner() {
    for (auto& r : replicas) {
      if (r->node->IsOwner(kGraph)) return *r;
    }
    return *replicas.front();
  }
};

bool Post(const HttpClient& client, uint16_t port, const std::string& path,
          const std::string& body,
          const std::vector<std::pair<std::string, std::string>>& headers,
          HttpClientResponse* response, std::string* error) {
  if (!client.Post(kHost, port, path, body, headers, response, error)) {
    return false;
  }
  if (response->status != 200) {
    *error = "HTTP " + std::to_string(response->status) + ": " +
             response->body.substr(0, 200);
    return false;
  }
  return true;
}

std::unique_ptr<Cluster> SetUp(const RunConfig& config, int attempt,
                               Samples* generate, Report& report) {
  auto cluster = std::make_unique<Cluster>();
  cluster->root = config.work_dir + "/churn-" + std::to_string(::getpid()) +
                  "-" + std::to_string(attempt);
  std::error_code ec;
  fs::remove_all(cluster->root, ec);
  fs::create_directories(cluster->root, ec);

  const BipartiteGraph graph =
      MakeChungLu(kNumU, kNumV, kEdges, kAlphaU, kAlphaV,
                  config.seed ^ kSeedSalt, generate);
  for (const BipartiteGraph::Edge& e : graph.ToEdges()) {
    cluster->mirror.Insert({e.u, e.v});
  }
  // The binary format records the shape; KONECT text would drop trailing
  // isolated vertices, and churn inserts may touch them later.
  const std::string graph_path = cluster->root + "/churn.bin";
  report.Attempted();
  if (!receipt::SaveBinary(graph, graph_path)) {
    report.Failed("cannot write " + graph_path);
    return nullptr;
  }

  const std::vector<std::string> ids = {"a", "b"};
  for (const std::string& id : ids) {
    auto replica = std::make_unique<Replica>();
    replica->id = id;
    replica->data_dir = cluster->root + "/data-" + id;
    fs::create_directories(replica->data_dir, ec);
    replica->service = std::make_unique<DecompositionService>(
        replica->registry, DurableOptions(replica->data_dir));
    replica->server = std::make_unique<receipt::server::HttpServer>();
    replica->frontend =
        std::make_unique<receipt::server::DecompositionHttpFrontend>(
            replica->registry, *replica->service, *replica->server,
            /*register_routes=*/false);
    receipt::cluster::ClusterNodeOptions options;
    options.self_id = id;
    for (const std::string& member : ids) {
      options.members.push_back({member, kHost, 0});
    }
    options.replication_factor = 2;
    replica->node = std::make_unique<receipt::cluster::ClusterNode>(
        options, replica->registry, *replica->service, *replica->frontend,
        *replica->server);
    std::string error;
    report.Attempted();
    if (!replica->service->durability_error().empty() ||
        !replica->server->Start(&error)) {
      report.Failed("replica " + id + " start: " + error +
                    replica->service->durability_error());
      return nullptr;
    }
    cluster->replicas.push_back(std::move(replica));
  }
  std::vector<receipt::cluster::ClusterMember> members;
  for (auto& replica : cluster->replicas) {
    members.push_back({replica->id, kHost, replica->port()});
  }
  for (auto& replica : cluster->replicas) {
    for (const auto& member : members) {
      replica->node->SetMemberEndpoint(member.id, kHost, member.port);
    }
  }
  receipt::cluster::RouterOptions router_options;
  router_options.replication_factor = 2;
  cluster->router =
      std::make_unique<receipt::cluster::Router>(members, router_options);
  std::string error;
  report.Attempted();
  if (!cluster->router->Start(&error)) {
    report.Failed("router start: " + error);
    return nullptr;
  }

  const HttpClient client(30000);
  HttpClientResponse response;
  report.Attempted();
  if (!Post(client, cluster->router->port(), "/v1/graphs",
            std::string("{\"name\":\"") + kGraph + "\",\"path\":\"" +
                graph_path + "\"}",
            {}, &response, &error)) {
    report.Failed("register through the router: " + error);
    return nullptr;
  }
  for (auto& replica : cluster->replicas) {
    report.Attempted();
    const receipt::service::GraphHandle handle =
        replica->registry.Acquire(kGraph);
    if (!handle || handle.graph().num_u() != kNumU ||
        handle.graph().num_v() != kNumV) {
      report.Failed("replica " + replica->id + " holds no " +
                    std::to_string(kNumU) + "x" + std::to_string(kNumV) +
                    " graph after registration");
      return nullptr;
    }
    report.Attempted();
    if (replica->service->live().Track(kGraph, {RequestKind::kTipU, 150},
                                       /*threads=*/1, &error) !=
        receipt::service::Status::kOk) {
      report.Failed("track tip-U on " + replica->id + ": " + error);
      return nullptr;
    }
  }
  return cluster;
}

/// One seeded tail-churn batch: deletes of existing edges and inserts of
/// absent ones, every endpoint of degree at most kTailDegree, no pair
/// twice. Applied to the mirror.
std::string NextBatch(std::mt19937_64& rng, Mirror& mirror) {
  std::uniform_int_distribution<uint32_t> tail_u(kNumU / 2, kNumU - 1);
  std::uniform_int_distribution<uint32_t> tail_v(kNumV / 2, kNumV - 1);
  std::set<Edge> touched;
  receipt::util::JsonWriter json;
  json.BeginObject().Key("edges").BeginArray();
  const auto emit = [&](bool insert, const Edge& e) {
    json.BeginObject().Key("op").String(insert ? "insert" : "delete")
        .Key("u").Uint(e.first).Key("v").Uint(e.second).EndObject();
    touched.insert(e);
  };
  for (int i = 0; i < kBatchDeletes;) {
    const uint32_t u = tail_u(rng);
    if (mirror.du[u] == 0 || mirror.du[u] > kTailDegree) continue;
    std::vector<Edge> candidates;
    for (auto it = mirror.edges.lower_bound({u, 0});
         it != mirror.edges.end() && it->first == u; ++it) {
      if (mirror.dv[it->second] <= kTailDegree && touched.count(*it) == 0) {
        candidates.push_back(*it);
      }
    }
    if (candidates.empty()) continue;
    const Edge e = candidates[std::uniform_int_distribution<size_t>(
        0, candidates.size() - 1)(rng)];
    mirror.Erase(e);
    emit(false, e);
    ++i;
  }
  for (int i = 0; i < kBatchInserts;) {
    const Edge e{tail_u(rng), tail_v(rng)};
    if (mirror.du[e.first] > kTailDegree ||
        mirror.dv[e.second] > kTailDegree || mirror.edges.count(e) != 0 ||
        touched.count(e) != 0) {
      continue;
    }
    mirror.Insert(e);
    emit(true, e);
    ++i;
  }
  json.EndArray().Key("seal").Bool(true).Key("threads").Int(1).EndObject();
  return json.Take();
}

/// One traced read: what it asked for, whether it was a cache hit, and
/// its client latency and http.parse span (negative when not found).
struct TracedRead {
  bool tip_u;
  bool hit;
  double latency_s;
  double parse_s;
};

/// Everything the load phase observed.
struct ChurnLog {
  Samples read_s, write_s;
  Samples read_u_s;  ///< tip-U reads alone: a cache hit after every seal
  std::vector<TracedRead> traced_reads;
  uint64_t read_bytes = 0;
  Samples seal_s, ranges_reused, ranges_repeeled;
  Samples queue_wait_s, engine_run_s;  ///< traced reads, from the rings
  Samples replay_elements, count_s, count_wedges;  ///< traced writes
  // The CD and FD work of each traced seal's incremental tip-U run.
  Samples cd_s, cd_wedges, sync_rounds, huc_recounts;
  Samples fd_s, fd_wedges, makespan_predicted, makespan_measured;
};

/// Sums a counter over both replicas' services.
template <typename F>
uint64_t SumReplicas(Cluster& cluster, F field) {
  uint64_t sum = 0;
  for (auto& r : cluster.replicas) sum += field(*r);
  return sum;
}

/// Closed-loop writer and readers for `seconds`.
double DriveChurn(Cluster& cluster, uint64_t seed, double seconds,
                  bool traced, std::mt19937_64& write_rng, ChurnLog& log,
                  Report& report) {
  const uint16_t port = cluster.router->port();
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::mutex log_mu;
  std::vector<std::thread> threads;

  threads.emplace_back([&] {
    const HttpClient client(30000);
    while (NowSeconds() < deadline) {
      const std::string body = NextBatch(write_rng, cluster.mirror);
      HttpClientResponse response;
      std::string error;
      report.Attempted();
      const Span span;
      const bool ok =
          Post(client, port, std::string("/v1/graphs/") + kGraph + "/edges",
               body, {}, &response, &error);
      const double latency = span.Seconds();
      const auto json = receipt::util::JsonValue::Parse(response.body);
      bool sealed = false;
      if (ok && json.has_value()) json->GetBool("sealed", &sealed);
      if (!ok || !sealed) {
        report.Failed("edge batch: " + (ok ? "not sealed" : error));
        continue;
      }
      std::lock_guard<std::mutex> lock(log_mu);
      log.write_s.Add(latency);
      if (const auto* seal = json->Find("seal_seconds"); seal != nullptr) {
        log.seal_s.Add(seal->AsDouble());
      }
      if (const auto* runs = json->Find("runs");
          runs != nullptr && runs->IsArray()) {
        for (const auto& run : runs->Items()) {
          int64_t reused = 0, repeeled = 0;
          run.GetInt("ranges_reused", &reused);
          run.GetInt("ranges_repeeled", &repeeled);
          log.ranges_reused.Add(static_cast<double>(reused));
          log.ranges_repeeled.Add(static_cast<double>(repeeled));
        }
      }
      if (traced) {
        // The seal primed the owner's cache with its tip-U run; its
        // PeelStats carry the seal's counting and replay work.
        receipt::service::Request request;
        request.graph = kGraph;
        const auto primed = cluster.owner().service->Execute(request);
        if (primed.status == receipt::service::Status::kOk &&
            primed.cache_hit) {
          const receipt::PeelStats& s = primed.payload->stats;
          log.replay_elements.Add(
              static_cast<double>(s.incremental_replay_elements));
          log.count_s.Add(s.seconds_counting);
          log.count_wedges.Add(static_cast<double>(s.wedges_counting));
          log.cd_s.Add(s.seconds_cd);
          log.cd_wedges.Add(static_cast<double>(s.wedges_cd));
          log.sync_rounds.Add(static_cast<double>(s.sync_rounds));
          log.huc_recounts.Add(static_cast<double>(s.huc_recounts));
          log.fd_s.Add(s.seconds_fd);
          log.fd_wedges.Add(static_cast<double>(s.wedges_fd));
          log.makespan_predicted.Add(
              static_cast<double>(s.makespan_predicted));
          log.makespan_measured.Add(static_cast<double>(s.makespan_measured));
        }
      }
    }
  });

  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(c));
      const HttpClient client(30000);
      while (NowSeconds() < deadline) {
        const bool tip_u = (rng() & 1) == 0;
        const std::string body = std::string("{\"graph\":\"") + kGraph +
                                 "\",\"kind\":\"" +
                                 (tip_u ? "tip-U" : "tip-V") +
                                 "\",\"threads\":1}";
        std::vector<std::pair<std::string, std::string>> headers;
        uint64_t trace_id = 0;
        if (traced) {
          trace_id = NextTraceId();
          headers.emplace_back("X-Request-Id",
                               receipt::obs::FormatTraceId(trace_id));
        }
        HttpClientResponse response;
        std::string error;
        report.Attempted();
        const Span span;
        const bool ok =
            Post(client, port, "/v1/decompose", body, headers, &response,
                 &error);
        const double latency = span.Seconds();
        if (!ok) {
          report.Failed("read: " + error);
          continue;
        }
        std::vector<receipt::obs::TraceSpan> spans;
        if (traced) {
          for (auto& r : cluster.replicas) {
            for (const auto& s :
                 r->service->observability().traces.ForTrace(trace_id)) {
              spans.push_back(s);
            }
          }
        }
        std::lock_guard<std::mutex> lock(log_mu);
        log.read_s.Add(latency);
        if (tip_u) log.read_u_s.Add(latency);
        log.read_bytes += response.body.size();
        if (!traced) continue;
        TracedRead read{tip_u,
                        response.body.find("\"cache_hit\":true") !=
                            std::string::npos,
                        latency, -1.0};
        for (const auto& s : spans) {
          const double seconds = s.duration_ns * 1e-9;
          if (s.Name() == "http.parse") read.parse_s = seconds;
          if (s.Name() == "queue.wait") log.queue_wait_s.Add(seconds);
          if (s.Name() == "engine.run") log.engine_run_s.Add(seconds);
        }
        log.traced_reads.push_back(read);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return NowSeconds() - start;
}

/// The final edge set as a graph, and its from-scratch numbers as the
/// JSON text the servers write.
struct Expected {
  std::string tip_u, tip_v;
};

Expected FromScratch(const std::set<Edge>& edges) {
  std::vector<BipartiteGraph::Edge> list;
  list.reserve(edges.size());
  for (const Edge& e : edges) list.push_back({e.first, e.second});
  const BipartiteGraph graph =
      BipartiteGraph::FromEdges(kNumU, kNumV, std::move(list));
  // Untimed, so it may use every core; the numbers do not depend on it.
  receipt::TipOptions options;
  options.num_threads = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  Expected expected;
  expected.tip_u = NumbersJson(receipt::ReceiptDecompose(graph, options)
                                   .tip_numbers);
  options.side = receipt::Side::kV;
  expected.tip_v = NumbersJson(receipt::ReceiptDecompose(graph, options)
                                   .tip_numbers);
  return expected;
}

std::string DecomposeBody(const char* kind) {
  return std::string("{\"graph\":\"") + kGraph + "\",\"kind\":\"" + kind +
         "\",\"threads\":2}";
}

void CheckReplicas(Cluster& cluster, const Expected& expected,
                   Report& report) {
  const HttpClient client(30000);
  for (auto& replica : cluster.replicas) {
    for (const char* kind : {"tip-U", "tip-V"}) {
      HttpClientResponse response;
      std::string error;
      report.Attempted();
      if (!Post(client, replica->port(), "/v1/decompose", DecomposeBody(kind),
                {}, &response, &error)) {
        report.Failed("final " + std::string(kind) + " on replica " +
                      replica->id + ": " + error);
        continue;
      }
      const std::string& want =
          std::string(kind) == "tip-U" ? expected.tip_u : expected.tip_v;
      if (NumbersOf(response.body) != want) {
        report.Failed("replica " + replica->id + " " + kind +
                      " numbers differ from a from-scratch decomposition");
      }
    }
  }
  report.Attempted();
  const uint64_t syncs = SumReplicas(
      cluster, [](Replica& r) { return r.node->stats().chain_syncs; });
  if (syncs != 0) {
    report.Failed("replicas needed " + std::to_string(syncs) +
                  " full-state chain syncs");
  }
}

/// Service and serialization layer times of one cache-hit read, measured
/// from outside: DecompositionService::Execute, then WriteResponseJson on
/// the payload it returned.
struct HitLayers {
  double service_s = 0.0;
  double serialize_s = 0.0;
};

/// Times both read kinds on `replica` once the load has stopped (every
/// kind is cached for the final epoch by then). `hit_s` collects every
/// Execute sample.
std::map<RequestKind, HitLayers> TimeHitLayers(Replica& replica,
                                               Samples* hit_s,
                                               Report& report) {
  std::map<RequestKind, HitLayers> layers;
  for (const RequestKind kind : {RequestKind::kTipU, RequestKind::kTipV}) {
    receipt::service::Request request;
    request.graph = kGraph;
    request.kind = kind;
    Samples service_s, serialize_s;
    for (int i = 0; i < kHitLayerRepeats; ++i) {
      report.Attempted();
      const Span service_span;
      const auto response = replica.service->Execute(request);
      service_s.Add(service_span.Seconds());
      if (response.status != receipt::service::Status::kOk ||
          !response.cache_hit) {
        report.Failed("in-process Execute after the load was not a hit");
        continue;
      }
      const Span serialize_span;
      receipt::util::JsonWriter writer;
      receipt::service::WriteResponseJson(request, response, &writer);
      serialize_s.Add(serialize_span.Seconds());
    }
    layers[kind] = {service_s.Median(), serialize_s.Median()};
    hit_s->Append(service_s);
  }
  return layers;
}

/// Direct-to-replica and routed cache-hit reads, alternating; returns the
/// median routed minus the median direct latency.
double RouterRelaySeconds(Cluster& cluster, Report& report) {
  const HttpClient client(30000);
  Samples direct, routed;
  const std::string body = DecomposeBody("tip-U");
  for (int i = 0; i < kRelayProbes; ++i) {
    for (const bool via_router : {false, true}) {
      const uint16_t port =
          via_router ? cluster.router->port()
                     : cluster.replicas[i % cluster.replicas.size()]->port();
      HttpClientResponse response;
      std::string error;
      report.Attempted();
      const Span span;
      if (!Post(client, port, "/v1/decompose", body, {}, &response, &error)) {
        report.Failed("relay probe: " + error);
        continue;
      }
      (via_router ? routed : direct).Add(span.Seconds());
    }
  }
  return routed.Median() - direct.Median();
}

/// Constructs a DecompositionService over a copy of `data_dir`, as a
/// restarted replica process would, and times the construction into
/// `recovery_s`. The recovered service must serve `tip_u`, and `tip_v`
/// when given (one engine run). Returns what the recovery found.
receipt::durability::RecoveryReport Recover(const std::string& data_dir,
                                            const std::string& copy,
                                            const std::string& tip_u,
                                            const std::string* tip_v,
                                            Samples& recovery_s,
                                            Report& report) {
  std::error_code ec;
  fs::copy(data_dir, copy, fs::copy_options::recursive, ec);
  // Flush the copy first, so the recovery's own journal fsyncs do not pay
  // for writing back the copied files.
  ::sync();
  receipt::durability::RecoveryReport recovery;
  {
    receipt::service::GraphRegistry registry;
    const Span span;
    DecompositionService service(registry, DurableOptions(copy));
    recovery_s.Add(span.Seconds());
    report.Attempted();
    if (ec || !service.durability_error().empty()) {
      report.Failed("recovery: " + ec.message() + service.durability_error());
    } else {
      recovery = service.recovery_report();
      report.Attempted();
      if (ServedNumbers(service, RequestKind::kTipU) != tip_u ||
          (tip_v != nullptr &&
           ServedNumbers(service, RequestKind::kTipV) != *tip_v)) {
        report.Failed("recovered service serves other numbers than the "
                      "replicas");
      }
    }
    service.Shutdown(/*drain=*/true);
  }
  fs::remove_all(copy, ec);
  return recovery;
}

}  // namespace

void RunChurnReplicated(const RunConfig& config, Report& report) {
  PrintMetadata(config, /*engine_threads=*/1, /*client_threads=*/1 + kReaders);
  Samples setup, generate;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.reset();
    const Span span;
    cluster = SetUp(config, i, &generate, report);
    setup.Add(span.Seconds());
    if (!cluster) return;
  }
  Replica& owner = cluster->owner();

  struct Counters {
    uint64_t coalesced, engine_runs, failovers, stale, replicated_out;
    uint64_t appends, bytes, fsyncs, cache_hits, cache_misses;
  };
  const auto read_counters = [&] {
    Counters c{};
    c.coalesced = SumReplicas(
        *cluster, [](Replica& r) { return r.service->stats().coalesced; });
    c.engine_runs = SumReplicas(
        *cluster, [](Replica& r) { return r.service->stats().engine_runs; });
    c.failovers = cluster->router->stats().failovers;
    c.stale = SumReplicas(
        *cluster, [](Replica& r) { return r.node->stats().stale_rejects; });
    c.replicated_out = owner.node->stats().replicated_out;
    const auto journal = [](Replica& r, auto field) {
      return r.service->durability()->stats().journal.*field;
    };
    c.appends = SumReplicas(*cluster, [&](Replica& r) {
      return journal(r, &receipt::durability::JournalStats::appends);
    });
    c.bytes = SumReplicas(*cluster, [&](Replica& r) {
      return journal(r, &receipt::durability::JournalStats::bytes_written);
    });
    c.fsyncs = SumReplicas(*cluster, [&](Replica& r) {
      return journal(r, &receipt::durability::JournalStats::fsyncs);
    });
    c.cache_hits = SumReplicas(
        *cluster, [](Replica& r) { return r.service->cache_stats().hits; });
    c.cache_misses = SumReplicas(
        *cluster, [](Replica& r) { return r.service->cache_stats().misses; });
    return c;
  };
  const Counters before = read_counters();

  Replica& follower = cluster->replicas.front().get() == &owner
                          ? *cluster->replicas.back()
                          : *cluster->replicas.front();
  Samples recovery_s;
  int recoveries = 0;
  const auto recover = [&](const std::string& tip_u,
                           const std::string* tip_v) {
    return Recover(follower.data_dir,
                   cluster->root + "/recover-" + std::to_string(recoveries++),
                   tip_u, tip_v, recovery_s, report);
  };

  // A traced run alternates untraced and traced slices so the graph's
  // drift under churn hits both alike. An untraced run pauses the load
  // after each slice to recover copies of the follower's data dir (at
  // rest while the load is paused), so the recovery samples span the run
  // as the read and write samples do.
  std::mt19937_64 write_rng(config.seed * 2654435761u + 17);
  ChurnLog untraced, traced;
  double elapsed = 0.0;
  const double slice =
      config.trace ? kTracedSliceSeconds : config.seconds / kLoadSlices;
  for (uint64_t i = 0; elapsed < config.seconds - 0.5 * slice; ++i) {
    elapsed += DriveChurn(*cluster, config.seed * 7919 + i, slice, false,
                          write_rng, untraced, report);
    if (!config.trace) {
      const std::string tip_u =
          ServedNumbers(*owner.service, RequestKind::kTipU);
      for (int k = 0; k < kRecoveriesPerPause; ++k) recover(tip_u, nullptr);
      continue;
    }
    elapsed += DriveChurn(*cluster, config.seed * 7919 + i, slice, true,
                          write_rng, traced, report);
  }
  const Counters after = read_counters();

  const Expected expected = FromScratch(cluster->mirror.edges);
  CheckReplicas(*cluster, expected, report);

  double relay_s = 0.0;
  Samples snapshot_s, hit_s;
  std::map<RequestKind, HitLayers> hit_layers;
  if (config.trace) {
    hit_layers = TimeHitLayers(owner, &hit_s, report);
    relay_s = RouterRelaySeconds(*cluster, report);
    for (int i = 0; i < kSnapshotRepeats; ++i) {
      std::string error;
      report.Attempted();
      const Span span;
      if (owner.service->SnapshotGraph(kGraph, &error) !=
          receipt::service::Status::kOk) {
        report.Failed("snapshot: " + error);
      }
      snapshot_s.Add(span.Seconds());
    }
  }
  std::error_code ec;
  const std::string snapshot_file =
      receipt::durability::DurabilityManager::SnapshotDirFor(owner.data_dir) +
      "/" + kGraph + ".snap";
  const double snapshot_bytes =
      static_cast<double>(fs::file_size(snapshot_file, ec));

  // The last recovery, with the replicas stopped, must serve the
  // from-scratch numbers of the final edge set.
  cluster->router->Stop();
  for (auto& replica : cluster->replicas) replica->Stop();
  const receipt::durability::RecoveryReport recovery =
      recover(expected.tip_u, &expected.tip_v);

  if (!config.trace) {
    report.MedianMetric("setup_s", setup, 1.0, "s");
    report.MedianMetric("op1_s", untraced.write_s, 1.0, "s", "write");
    report.TailMetric("op2_s", untraced.write_s, 1.0, "s", "write tail");
    // tip-U reads alone: the p50 of the tip-U/tip-V mix falls between the
    // two kinds' latencies and swings with the mix.
    report.MedianMetric("op3_s", untraced.read_u_s, 1.0, "s", "tip-U read");
    report.MedianMetric("read_p50_ms", untraced.read_s, 1e3, "ms",
                        "all reads");
    report.MedianMetric("op4_s", recovery_s, 1.0, "s", "recovery");
    return;
  }

  const double writes = static_cast<double>(
      std::max<size_t>(untraced.write_s.size() + traced.write_s.size(), 1));
  report.MedianMetric("graph.generate_s", generate, 1.0, "s");
  report.MedianMetric("count.s", traced.count_s, 1.0, "s");
  report.Metric("count.wedges", traced.count_wedges.Median(), "count",
                "median over seals");
  report.Metric("count.ns_per_wedge",
                traced.count_s.Median() * 1e9 / traced.count_wedges.Median(),
                "ns");
  // A seal re-peels only the ranges the batch touched, at threads:1 (so
  // there is no t=2 speedup to report here).
  const char* per_seal = "median per seal";
  report.MedianMetric("cd.s", traced.cd_s, 1.0, "s", "per seal");
  report.Metric("cd.wedges", traced.cd_wedges.Median(), "count", per_seal);
  report.Metric("cd.sync_rounds", traced.sync_rounds.Median(), "count",
                per_seal);
  report.Metric("cd.huc_recounts", traced.huc_recounts.Median(), "count",
                per_seal);
  report.Metric("cd.ns_per_wedge",
                traced.cd_s.Median() * 1e9 / traced.cd_wedges.Median(), "ns");
  report.MedianMetric("fd.s", traced.fd_s, 1.0, "s", "per seal");
  report.Metric("fd.wedges", traced.fd_wedges.Median(), "count", per_seal);
  report.Metric("fd.makespan_predicted", traced.makespan_predicted.Median(),
                "count", per_seal);
  report.Metric("fd.makespan_measured", traced.makespan_measured.Median(),
                "count", per_seal);
  report.MedianMetric("service.queue_wait_ms", traced.queue_wait_s, 1e3,
                      "ms");
  report.MedianMetric("service.engine_run_s", traced.engine_run_s, 1.0, "s");
  report.Metric("service.coalesced",
                static_cast<double>(after.coalesced - before.coalesced),
                "count");
  report.Metric("service.engine_runs",
                static_cast<double>(after.engine_runs - before.engine_runs),
                "count");
  Samples seal_s = untraced.seal_s;
  seal_s.Append(traced.seal_s);
  Samples reused = untraced.ranges_reused, repeeled = untraced.ranges_repeeled;
  reused.Append(traced.ranges_reused);
  repeeled.Append(traced.ranges_repeeled);
  report.MedianMetric("live.seal_s", seal_s, 1.0, "s");
  report.Metric("live.ranges_reused", reused.Mean(), "count",
                "mean per seal");
  report.Metric("live.ranges_repeeled", repeeled.Mean(), "count",
                "mean per seal");
  report.Metric("live.replay_elements", traced.replay_elements.Median(),
                "count", "median per seal");
  report.Metric("journal.appends",
                static_cast<double>(after.appends - before.appends) / writes,
                "count", "per acked batch, both replicas");
  report.Metric("journal.bytes",
                static_cast<double>(after.bytes - before.bytes) / writes,
                "bytes", "per acked batch, both replicas");
  report.Metric("journal.fsyncs",
                static_cast<double>(after.fsyncs - before.fsyncs) / writes,
                "count", "per acked batch, both replicas");
  report.MedianMetric("snapshot.s", snapshot_s, 1.0, "s");
  report.Metric("snapshot.bytes", snapshot_bytes, "bytes");
  report.Metric("recovery.records_scanned",
                static_cast<double>(recovery.records_scanned), "count");
  report.Metric("recovery.batches_replayed",
                static_cast<double>(recovery.batches_replayed), "count");
  report.Metric("router.relay_us", relay_s * 1e6, "us");
  report.Metric("router.failovers",
                static_cast<double>(after.failovers - before.failovers),
                "count");
  report.Metric("cluster.stale_rejects",
                static_cast<double>(after.stale - before.stale), "count");
  report.Metric("cluster.replicated_out",
                static_cast<double>(after.replicated_out -
                                    before.replicated_out),
                "count");
  // Read breakdown over the traced cache hits: transport (client, router
  // hop and sockets) is what remains of the client latency after the
  // replica's http.parse span and the out-of-band service and serialize
  // times of the read's kind.
  const double band_lo = traced.read_s.Percentile(0.45);
  const double band_hi = traced.read_s.Percentile(0.55);
  Samples parse, service, serialize, transport;
  double band_n = 0, band_latency = 0, band_parse = 0, band_service = 0,
         band_serialize = 0;
  for (const TracedRead& r : traced.traced_reads) {
    if (!r.hit || r.parse_s < 0.0) continue;
    const HitLayers& l =
        hit_layers[r.tip_u ? RequestKind::kTipU : RequestKind::kTipV];
    parse.Add(r.parse_s);
    service.Add(l.service_s);
    serialize.Add(l.serialize_s);
    transport.Add(r.latency_s - r.parse_s - l.service_s - l.serialize_s);
    if (r.latency_s >= band_lo && r.latency_s <= band_hi) {
      band_n += 1;
      band_latency += r.latency_s;
      band_parse += r.parse_s;
      band_service += l.service_s;
      band_serialize += l.serialize_s;
    }
  }
  if (band_n > 0) {
    band_latency /= band_n;
    band_parse /= band_n;
    band_service /= band_n;
    band_serialize /= band_n;
  }
  const uint64_t lookups = (after.cache_hits - before.cache_hits) +
                           (after.cache_misses - before.cache_misses);
  report.MedianMetric("service.hit_us", hit_s, 1e6, "us");
  report.Metric("service.cache_hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(after.cache_hits -
                                                   before.cache_hits) /
                                   static_cast<double>(lookups),
                "ratio", "both replicas over the load");
  report.MedianMetric("http.parse_us", parse, 1e6, "us");
  report.MedianMetric("http.serialize_us", serialize, 1e6, "us");
  report.MedianMetric("http.transport_us", transport, 1e6, "us");
  const size_t reads = untraced.read_s.size() + traced.read_s.size();
  report.Metric("http.response_bytes",
                static_cast<double>(untraced.read_bytes + traced.read_bytes) /
                    static_cast<double>(std::max<size_t>(reads, 1)),
                "bytes", "mean per read");
  const double p50 = untraced.read_s.Median();
  // The read tail is the noisiest timing of the run (a slow phase of the
  // host moves it most), so it is reported without a bound.
  report.TailMetric("client.read_tail_ms", untraced.read_s, 1e3, "ms");
  report.Metric("obs.trace_overhead", traced.read_s.Median() / p50 - 1.0,
                "ratio", "traced slices' read p50 over untraced slices'");
  report.Note(
      "coverage: the " + std::to_string(static_cast<int>(band_n)) +
      " traced cache hits around the read p50 spend http.parse " +
      FormatNumber(band_parse * 1e6) + " us + service " +
      FormatNumber(band_service * 1e6) + " us + serialize " +
      FormatNumber(band_serialize * 1e6) + " us + transport " +
      FormatNumber((band_latency - band_parse - band_service -
                    band_serialize) * 1e6) +
      " us = " + FormatNumber(band_latency * 1e3) + " ms = " +
      Within(band_latency, p50) + " of the untraced p50 of all reads (parse " +
      Percent(band_parse, p50) + ", service " + Percent(band_service, p50) +
      ", serialize " + Percent(band_serialize, p50) + ")");
  report.Note("untraced end-to-end (same run): op1_s (write p50)=" +
              FormatNumber(untraced.write_s.Median()) +
              " op3_s (tip-U read p50)=" +
              FormatNumber(untraced.read_u_s.Median()) +
              " all-reads p50=" + FormatNumber(p50) +
              " final recovery=" + FormatNumber(recovery_s.Median()) +
              " setup_s=" + FormatNumber(setup.Median()) + "; " +
              std::to_string(reads) +
              " reads, " + std::to_string(static_cast<size_t>(writes)) +
              " writes");
  report.Note("write breakdown: seal " + FormatNumber(seal_s.Median()) +
              " s on the owner (count " +
              FormatNumber(traced.count_s.Median()) +
              " s) of op1_s (write p50) " +
              FormatNumber(untraced.write_s.Median()) +
              " s; the rest is the follower's replicated seal, the journal "
              "and snapshot writes, and the router and replication hops");
}

}  // namespace perfbench
