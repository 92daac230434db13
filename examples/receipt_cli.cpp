// receipt_cli — command-line driver for the library: generate datasets,
// inspect statistics, run any decomposition algorithm and export results.
//
//   receipt_cli generate --type chunglu --nu 10000 --nv 5000 --edges 50000 \
//                        --alpha-u 0.5 --alpha-v 0.8 --seed 1 --output g.konect
//   receipt_cli stats    --dataset tr
//   receipt_cli decompose --input g.konect --algo receipt --side U \
//                        --threads 8 --partitions 150 --output tips.txt
//   receipt_cli wing     --dataset it --parallel --partitions 8
//   receipt_cli serve    --graphs g1=a.konect,g2=b.bin --workers 2 \
//                        --clients 4 --requests 24 --threads 2
//   receipt_cli serve    --http-port 8080 --datasets it,de --workers 2
//   receipt_cli update   --port 8080 --graph g1 --batch updates.txt --seal
//
// With --http-port, serve exposes the service as HTTP/JSON endpoints
// (POST /v1/decompose, GET/POST /v1/graphs, POST /v1/graphs/{name}/edges,
// /healthz, /statz) and runs until SIGINT/SIGTERM, then drains gracefully.
// `update` posts an edge-update batch (lines "+ u v" / "- u v", from a file
// or stdin) to a running server's live-update endpoint.
//
// Exit code 0 on success, 1 on usage errors, 2 on IO failures.

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <cctype>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sstream>

#include "cluster/http_client.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "receipt/receipt_lib.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "util/json.h"
#include "util/timer.h"

namespace {

using namespace receipt;

/// Minimal --flag value parser: flags() returns "" for missing keys;
/// boolean switches store "1". Accepts both `--flag value` and
/// `--flag=value` spellings.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (const size_t eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
        continue;
      }
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Validated on/off switch: absent → `fallback`; bare flag / on / 1 / true
/// → true; off / 0 / false → false; anything else is a usage error.
bool ParseOnOff(const Args& args, const char* flag, bool fallback,
                bool* out) {
  if (!args.Has(flag)) {
    *out = fallback;
    return true;
  }
  const std::string value = args.Get(flag);
  if (value == "1" || value == "on" || value == "true") {
    *out = true;
    return true;
  }
  if (value == "0" || value == "off" || value == "false") {
    *out = false;
    return true;
  }
  std::fprintf(stderr, "--%s takes on or off, got '%s'\n", flag,
               value.c_str());
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: receipt_cli <command> [flags]\n"
      "commands:\n"
      "  generate  --type chunglu|random|complete --nu N --nv N --edges M\n"
      "            [--alpha-u A --alpha-v A] [--seed S] --output FILE\n"
      "  stats     --input FILE | --dataset it|de|or|lj|en|tr\n"
      "            [--approx-samples N]\n"
      "  decompose --input FILE | --dataset NAME  [--algo receipt|bup|parb]\n"
      "            [--side U|V] [--threads T] [--partitions P]\n"
      "            [--no-huc] [--no-dgm] [--pin-numa[=off]]\n"
      "            [--placement-nodes N] [--output FILE]\n"
      "  wing      --input FILE | --dataset NAME  [--parallel]\n"
      "            [--threads T] [--partitions P] [--output FILE]\n"
      "  serve     --graphs NAME=FILE[,NAME=FILE...] | --datasets it,de,...\n"
      "            [--workers W] [--clients C] [--requests N] [--threads T]\n"
      "            [--partitions P] [--cache-mb MB] [--queue-capacity N]\n"
      "            [--pin-numa[=off]] [--http-port PORT] [--http-threads N]\n"
      "            [--max-pending-edges N] [--max-staleness-ms MS]\n"
      "            [--dirty-fraction-limit F] [--live-track tip-U:150,wing:8]\n"
      "            [--data-dir DIR] [--fsync always|batch|off]\n"
      "            [--journal-segment-mb MB] [--snapshot-on-seal[=off]]\n"
      "            [--cluster-id ID --cluster-members a=H:P,b=H:P,...]\n"
      "            [--replication R] [--cluster-proxy[=off]]\n"
      "            [--peer-timeout-ms MS]\n"
      "            (--http-port serves HTTP/JSON until SIGINT/SIGTERM;\n"
      "             port 0 binds an ephemeral port, printed on startup;\n"
      "             graphs may also be registered later via POST /v1/graphs;\n"
      "             --data-dir journals every change and recovers on start;\n"
      "             --cluster-id joins the replicated tier as that member)\n"
      "  router    --members a=H:P,b=H:P,... [--http-port PORT]\n"
      "            [--http-threads N] [--replication R] [--trace-log FILE]\n"
      "            [--health-interval-ms MS] [--peer-timeout-ms MS]\n"
      "            (front-end for a replica set: spreads reads over healthy\n"
      "             holders, steers writes to the shard owner, fails over,\n"
      "             and appends one JSONL client-trace record per acked op\n"
      "             for tools/consistency_check)\n"
      "  update    --graph NAME --batch FILE|-  [--host H] [--port P]\n"
      "            [--seal] [--threads T] [--track tip-U:150,wing:8]\n"
      "            [--retries N] [--retry-base-ms MS]\n"
      "            (batch lines: '+ u v' inserts, '- u v' deletes; posts to\n"
      "             a running serve --http-port instance; retries 429/503\n"
      "             and transport failures with jittered backoff)\n");
  return 1;
}

bool LoadGraph(const Args& args, BipartiteGraph* graph) {
  if (args.Has("dataset")) {
    const std::string name = args.Get("dataset");
    for (const std::string& known : PaperAnalogueNames()) {
      if (name == known) {
        *graph = MakePaperAnalogue(name);
        return true;
      }
    }
    std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
    return false;
  }
  const std::string path = args.Get("input");
  if (path.empty()) {
    std::fprintf(stderr, "need --input FILE or --dataset NAME\n");
    return false;
  }
  std::string error;
  auto loaded = LoadGraphFile(path, &error);
  if (!loaded) {
    std::fprintf(stderr, "failed to load '%s': %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  *graph = std::move(*loaded);
  return true;
}

int CmdGenerate(const Args& args) {
  const std::string type = args.Get("type", "chunglu");
  const VertexId nu = static_cast<VertexId>(args.GetInt("nu", 1000));
  const VertexId nv = static_cast<VertexId>(args.GetInt("nv", 1000));
  const uint64_t edges = static_cast<uint64_t>(args.GetInt("edges", 5000));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  BipartiteGraph graph;
  if (type == "chunglu") {
    graph = ChungLuBipartite(nu, nv, edges, args.GetDouble("alpha-u", 0.5),
                             args.GetDouble("alpha-v", 0.5), seed);
  } else if (type == "random") {
    graph = RandomBipartite(nu, nv, edges, seed);
  } else if (type == "complete") {
    graph = CompleteBipartite(nu, nv);
  } else {
    std::fprintf(stderr, "unknown --type '%s'\n", type.c_str());
    return 1;
  }

  const std::string output = args.Get("output");
  if (output.empty()) {
    std::fprintf(stderr, "need --output FILE\n");
    return 1;
  }
  const bool ok =
      output.size() > 4 && output.substr(output.size() - 4) == ".bin"
          ? SaveBinary(graph, output)
          : SaveKonect(graph, output);
  if (!ok) {
    std::fprintf(stderr, "failed to write '%s'\n", output.c_str());
    return 2;
  }
  std::printf("wrote %s: |U|=%u |V|=%u |E|=%llu\n", output.c_str(),
              graph.num_u(), graph.num_v(),
              static_cast<unsigned long long>(graph.num_edges()));
  return 0;
}

int CmdStats(const Args& args) {
  BipartiteGraph graph;
  if (!LoadGraph(args, &graph)) return 2;
  std::printf("|U|=%u |V|=%u |E|=%llu dU=%.2f dV=%.2f\n", graph.num_u(),
              graph.num_v(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.AverageDegree(Side::kU), graph.AverageDegree(Side::kV));
  std::printf("wedgesU=%llu wedgesV=%llu counting_bound=%llu\n",
              static_cast<unsigned long long>(graph.TotalWedges(Side::kU)),
              static_cast<unsigned long long>(graph.TotalWedges(Side::kV)),
              static_cast<unsigned long long>(graph.CountingCostBound()));
  const int64_t samples = args.GetInt("approx-samples", 0);
  if (samples > 0) {
    const ApproxCountResult approx = ApproxTotalButterflies(
        graph, static_cast<uint64_t>(samples), /*seed=*/17);
    std::printf("approx butterflies=%.0f (rel. std. err %.3f, %llu "
                "samples)\n",
                approx.estimate, approx.relative_std_error,
                static_cast<unsigned long long>(approx.samples));
  } else {
    std::printf("butterflies=%llu\n",
                static_cast<unsigned long long>(TotalButterflies(graph, 4)));
  }
  return 0;
}

bool WriteCounts(const std::string& path, const std::vector<Count>& values) {
  std::ofstream out(path);
  for (size_t i = 0; i < values.size(); ++i) {
    out << i << " " << values[i] << "\n";
  }
  return static_cast<bool>(out);
}

int CmdDecompose(const Args& args) {
  BipartiteGraph graph;
  if (!LoadGraph(args, &graph)) return 2;

  TipOptions options;
  options.side = args.Get("side", "U") == "V" ? Side::kV : Side::kU;
  options.num_threads = static_cast<int>(args.GetInt("threads", 4));
  options.num_partitions =
      static_cast<int>(args.GetInt("partitions", 150));
  options.use_huc = !args.Has("no-huc");
  options.use_dgm = !args.Has("no-dgm");
  if (!ParseOnOff(args, "pin-numa", options.pin_numa, &options.pin_numa)) {
    return 1;
  }
  const int64_t placement_nodes = args.GetInt("placement-nodes", 0);
  if (placement_nodes < 0 || placement_nodes > 1024) {
    std::fprintf(stderr, "--placement-nodes must be in [0, 1024], got %lld\n",
                 static_cast<long long>(placement_nodes));
    return 1;
  }
  options.placement_nodes = static_cast<int>(placement_nodes);

  const std::string algo = args.Get("algo", "receipt");
  TipResult result;
  if (algo == "receipt") {
    result = ReceiptDecompose(graph, options);
  } else if (algo == "bup") {
    result = BupDecompose(graph, options);
  } else if (algo == "parb") {
    result = ParbDecompose(graph, options);
  } else {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return 1;
  }

  std::printf("%s on side %s: theta_max=%llu\n%s\n", algo.c_str(),
              SideName(options.side),
              static_cast<unsigned long long>(result.MaxTipNumber()),
              result.stats.ToString().c_str());
  const std::string output = args.Get("output");
  if (!output.empty()) {
    if (!WriteCounts(output, result.tip_numbers)) {
      std::fprintf(stderr, "failed to write '%s'\n", output.c_str());
      return 2;
    }
    std::printf("tip numbers written to %s\n", output.c_str());
  }
  return 0;
}

int CmdWing(const Args& args) {
  BipartiteGraph graph;
  if (!LoadGraph(args, &graph)) return 2;
  const int threads = static_cast<int>(args.GetInt("threads", 4));
  WingResult result;
  if (args.Has("parallel")) {
    ReceiptWingOptions options;
    options.num_threads = threads;
    options.num_partitions =
        static_cast<int>(args.GetInt("partitions", 8));
    result = ReceiptWingDecompose(graph, options);
  } else {
    result = WingDecompose(graph, threads);
  }
  std::printf("wing decomposition: max_wing=%llu\n%s\n",
              static_cast<unsigned long long>(result.MaxWingNumber()),
              result.stats.ToString().c_str());
  const std::string output = args.Get("output");
  if (!output.empty()) {
    if (!WriteCounts(output, result.wing_numbers)) {
      std::fprintf(stderr, "failed to write '%s'\n", output.c_str());
      return 2;
    }
    std::printf("wing numbers written to %s\n", output.c_str());
  }
  return 0;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Parses "tip-U:150,wing:8" into live-tracking configs (partitions
/// optional; RECEIPT defaults apply when omitted).
bool ParseTrackSpecs(const std::string& list,
                     std::vector<service::LiveConfig>* out) {
  for (const std::string& spec : SplitCommaList(list)) {
    service::LiveConfig config;
    std::string kind = spec;
    if (const size_t colon = spec.find(':'); colon != std::string::npos) {
      kind = spec.substr(0, colon);
      const std::string partitions = spec.substr(colon + 1);
      if (partitions.empty() ||
          partitions.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "bad partition count in track spec '%s'\n",
                     spec.c_str());
        return false;
      }
      config.partitions =
          static_cast<uint32_t>(std::atoll(partitions.c_str()));
    }
    if (!service::RequestKindFromName(kind, &config.kind)) {
      std::fprintf(stderr,
                   "track spec '%s': kind must be tip-U, tip-V or wing\n",
                   spec.c_str());
      return false;
    }
    out->push_back(config);
  }
  return true;
}

/// Reads an edge-update batch: one update per line, "+ u v" inserts,
/// "- u v" deletes, bare "u v" inserts; '#' starts a comment.
bool ReadUpdateBatch(std::istream& in, std::vector<service::EdgeUpdate>* out) {
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (const size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first)) continue;  // blank line
    service::EdgeUpdate update;
    long long u = -1;
    long long v = -1;
    if (first == "+" || first == "-") {
      update.insert = first == "+";
      if (!(fields >> u >> v)) u = -1;
    } else {
      update.insert = true;
      u = std::atoll(first.c_str());
      if (first.find_first_not_of("0123456789") != std::string::npos ||
          !(fields >> v)) {
        u = -1;
      }
    }
    std::string extra;
    if (u < 0 || v < 0 || u > UINT32_MAX || v > UINT32_MAX ||
        (fields >> extra)) {
      std::fprintf(stderr, "batch line %zu: expected '[+|-] u v', got '%s'\n",
                   line_number, line.c_str());
      return false;
    }
    update.u = static_cast<VertexId>(u);
    update.v = static_cast<VertexId>(v);
    out->push_back(update);
  }
  return true;
}

/// One JSON POST through the shared HTTP client (Connection: close).
/// Returns the HTTP status, or 0 with *error set on transport failure. When
/// the server sent a Retry-After header, `*retry_after_s` gets its value in
/// seconds.
int HttpPostJson(const std::string& host, uint16_t port,
                 const std::string& path, const std::string& body,
                 std::string* response_body, int* retry_after_s,
                 std::string* error) {
  *retry_after_s = 0;
  // A seal on a large graph may legitimately take minutes, so the deadline
  // only guards against a peer that hangs for good.
  const cluster::HttpClient client(/*timeout_ms=*/3600 * 1000);
  cluster::HttpClientResponse response;
  if (!client.Post(host, port, path, body, {}, &response, error)) {
    if (error->rfind("connect ", 0) == 0) {
      *error += " (is `receipt_cli serve --http-port` running?)";
    }
    return 0;
  }
  // The server's backoff hint on 429/503 (header names arrive lower-cased).
  const auto retry_after = response.headers.find("retry-after");
  if (retry_after != response.headers.end()) {
    *retry_after_s = std::atoi(retry_after->second.c_str());
  }
  *response_body = std::move(response.body);
  return response.status;
}

/// Posts with a retry budget: transport failures and 429/503 responses are
/// retried with jittered exponential backoff (base * 2^attempt, uniformly
/// jittered into [half, full]), and a server-sent Retry-After floor is
/// honored. Any other status returns immediately.
int HttpPostJsonWithRetry(const std::string& host, uint16_t port,
                          const std::string& path, const std::string& body,
                          int retries, int retry_base_ms,
                          std::string* response_body, std::string* error) {
  std::mt19937 rng(std::random_device{}());
  int status = 0;
  for (int attempt = 0; ; ++attempt) {
    int retry_after_s = 0;
    error->clear();
    status = HttpPostJson(host, port, path, body, response_body,
                          &retry_after_s, error);
    const bool retryable = status == 0 || status == 429 || status == 503;
    if (!retryable || attempt >= retries) return status;
    const double full_ms = static_cast<double>(retry_base_ms) *
                           static_cast<double>(1u << std::min(attempt, 20));
    std::uniform_real_distribution<double> jitter(full_ms / 2.0, full_ms);
    int64_t sleep_ms = static_cast<int64_t>(jitter(rng));
    sleep_ms = std::max<int64_t>(sleep_ms, int64_t{retry_after_s} * 1000);
    std::fprintf(stderr,
                 "attempt %d/%d: %s; retrying in %lld ms\n", attempt + 1,
                 retries + 1,
                 status == 0 ? error->c_str()
                             : ("HTTP " + std::to_string(status)).c_str(),
                 static_cast<long long>(sleep_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

// update: post an edge batch to a running server's live-update endpoint.
int CmdUpdate(const Args& args) {
  const std::string graph = args.Get("graph");
  if (graph.empty()) {
    std::fprintf(stderr, "need --graph NAME\n");
    return 1;
  }
  const std::string batch_path = args.Get("batch");
  if (batch_path.empty()) {
    std::fprintf(stderr, "need --batch FILE (or - for stdin)\n");
    return 1;
  }
  std::vector<service::EdgeUpdate> updates;
  if (batch_path == "-") {
    if (!ReadUpdateBatch(std::cin, &updates)) return 1;
  } else {
    std::ifstream in(batch_path);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", batch_path.c_str());
      return 2;
    }
    if (!ReadUpdateBatch(in, &updates)) return 1;
  }
  std::vector<service::LiveConfig> track;
  if (!ParseTrackSpecs(args.Get("track"), &track)) return 1;

  util::JsonWriter writer;
  writer.BeginObject().Key("edges");
  service::WriteEdgeUpdatesJson(updates, &writer);
  if (args.Has("seal")) writer.Key("seal").Bool(true);
  if (const int64_t threads = args.GetInt("threads", 0); threads > 0) {
    writer.Key("threads").Int(threads);
  }
  if (!track.empty()) {
    writer.Key("track").BeginArray();
    for (const service::LiveConfig& config : track) {
      writer.BeginObject()
          .Key("kind").String(service::RequestKindName(config.kind))
          .Key("partitions").Uint(config.partitions)
          .EndObject();
    }
    writer.EndArray();
  }
  writer.EndObject();

  const std::string host = args.Get("host", "127.0.0.1");
  const int64_t port = args.GetInt("port", 8080);
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "--port must be in [1, 65535]\n");
    return 1;
  }
  const int64_t retries = args.GetInt("retries", 3);
  const int64_t retry_base_ms = args.GetInt("retry-base-ms", 100);
  if (retries < 0 || retries > 100 || retry_base_ms < 1 ||
      retry_base_ms > 60000) {
    std::fprintf(stderr,
                 "--retries must be in [0, 100] and --retry-base-ms in "
                 "[1, 60000]\n");
    return 1;
  }
  std::string response_body;
  std::string error;
  const int status = HttpPostJsonWithRetry(
      host, static_cast<uint16_t>(port), "/v1/graphs/" + graph + "/edges",
      writer.Take(), static_cast<int>(retries),
      static_cast<int>(retry_base_ms), &response_body, &error);
  if (status == 0) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("%s\n", response_body.c_str());
  if (status != 200) {
    std::fprintf(stderr, "server answered HTTP %d\n", status);
    return 2;
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void OnStopSignal(int) { g_stop_requested = 1; }

// router: thin front-end over a replica set (see cluster::Router). Runs
// until SIGINT/SIGTERM, then prints routing stats.
int CmdRouter(const Args& args) {
  std::vector<cluster::ClusterMember> members;
  std::string member_error;
  if (!cluster::ParseClusterMembers(args.Get("members"), &members,
                                    &member_error)) {
    std::fprintf(stderr, "--members: %s\n", member_error.c_str());
    return 1;
  }
  if (members.empty()) {
    std::fprintf(stderr, "need --members a=HOST:PORT,b=HOST:PORT,...\n");
    return 1;
  }
  const int64_t port = args.GetInt("http-port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--http-port must be in [0, 65535], got %lld\n",
                 static_cast<long long>(port));
    return 1;
  }
  cluster::RouterOptions options;
  options.http.port = static_cast<uint16_t>(port);
  options.http.num_threads = static_cast<int>(args.GetInt("http-threads", 4));
  const int64_t replication = args.GetInt("replication", 2);
  if (replication < 1 || replication > static_cast<int64_t>(members.size())) {
    std::fprintf(stderr,
                 "--replication must be in [1, %zu] (the member count)\n",
                 members.size());
    return 1;
  }
  options.replication_factor = static_cast<size_t>(replication);
  const int64_t peer_timeout = args.GetInt("peer-timeout-ms", 5000);
  const int64_t health_interval = args.GetInt("health-interval-ms", 250);
  if (peer_timeout < 1 || peer_timeout > 600000 || health_interval < 0 ||
      health_interval > 600000) {
    std::fprintf(stderr, "--peer-timeout-ms must be in [1, 600000] and "
                         "--health-interval-ms in [0, 600000]\n");
    return 1;
  }
  options.peer_timeout_ms = static_cast<int>(peer_timeout);
  options.health_interval_ms = static_cast<int>(health_interval);
  options.trace_log_path = args.Get("trace-log");

  cluster::Router router(members, options);
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "failed to start router: %s\n", error.c_str());
    return 2;
  }
  std::printf("listening on http://%s:%u (router over %zu replicas, "
              "replication=%zu%s)\n",
              options.http.bind_address.c_str(), router.port(),
              members.size(), options.replication_factor,
              options.trace_log_path.empty()
                  ? ""
                  : (", trace-log " + options.trace_log_path).c_str());
  std::fflush(stdout);

  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("signal received: draining\n");
  router.Stop();

  const cluster::Router::Stats stats = router.stats();
  std::printf(
      "router: reads_routed=%llu writes_routed=%llu failovers=%llu "
      "no_replica=%llu trace_records=%llu healthy_replicas=%zu\n",
      static_cast<unsigned long long>(stats.reads_routed),
      static_cast<unsigned long long>(stats.writes_routed),
      static_cast<unsigned long long>(stats.failovers),
      static_cast<unsigned long long>(stats.no_replica),
      static_cast<unsigned long long>(stats.trace_records),
      stats.healthy_replicas);
  return 0;
}

// serve --http-port: expose the service over HTTP/JSON and run until
// SIGINT/SIGTERM. Shutdown order matters: the HTTP server drains first
// (handlers can still resolve futures against a live service), then the
// service drains its own queue.
int ServeHttp(const Args& args, service::GraphRegistry& registry,
              service::DecompositionService& service) {
  // Port 0 asks the kernel for an ephemeral port; the bound port is
  // printed on the "listening on" line below.
  const int64_t port = args.GetInt("http-port", 8080);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--http-port must be in [0, 65535], got %lld\n",
                 static_cast<long long>(port));
    return 1;
  }
  server::HttpServerOptions http_options;
  http_options.port = static_cast<uint16_t>(port);
  http_options.num_threads =
      static_cast<int>(args.GetInt("http-threads", 4));
  server::HttpServer http_server(http_options);

  // With --cluster-id the frontend registers no routes of its own: the
  // ClusterNode wraps every endpoint with ownership-aware routing and
  // delegates the local work back to the frontend's handlers.
  const std::string cluster_id = args.Get("cluster-id");
  server::DecompositionHttpFrontend frontend(
      registry, service, http_server, /*register_routes=*/cluster_id.empty());

  std::unique_ptr<cluster::ClusterNode> node;
  if (!cluster_id.empty()) {
    cluster::ClusterNodeOptions cluster_options;
    cluster_options.self_id = cluster_id;
    std::string member_error;
    if (!cluster::ParseClusterMembers(args.Get("cluster-members"),
                                      &cluster_options.members,
                                      &member_error)) {
      std::fprintf(stderr, "--cluster-members: %s\n", member_error.c_str());
      return 1;
    }
    bool self_listed = false;
    for (const cluster::ClusterMember& member : cluster_options.members) {
      self_listed = self_listed || member.id == cluster_id;
    }
    if (!self_listed) {
      std::fprintf(stderr, "--cluster-id '%s' is not in --cluster-members\n",
                   cluster_id.c_str());
      return 1;
    }
    const int64_t replication =
        args.GetInt("replication", cluster_options.replication_factor);
    if (replication < 1 ||
        replication > static_cast<int64_t>(cluster_options.members.size())) {
      std::fprintf(stderr,
                   "--replication must be in [1, %zu] (the member count)\n",
                   cluster_options.members.size());
      return 1;
    }
    cluster_options.replication_factor = static_cast<size_t>(replication);
    if (!ParseOnOff(args, "cluster-proxy", cluster_options.proxy,
                    &cluster_options.proxy)) {
      return 1;
    }
    const int64_t peer_timeout = args.GetInt("peer-timeout-ms", 5000);
    if (peer_timeout < 1 || peer_timeout > 600000) {
      std::fprintf(stderr, "--peer-timeout-ms must be in [1, 600000]\n");
      return 1;
    }
    cluster_options.peer_timeout_ms = static_cast<int>(peer_timeout);
    node = std::make_unique<cluster::ClusterNode>(cluster_options, registry,
                                                  service, frontend,
                                                  http_server);
  }

  std::string error;
  if (!http_server.Start(&error)) {
    std::fprintf(stderr, "failed to start HTTP server: %s\n", error.c_str());
    return 2;
  }
  if (node != nullptr) {
    // With --http-port 0 the advertised spec for this member is stale;
    // fix it up now that the real port is known.
    node->SetMemberEndpoint(cluster_id, http_options.bind_address,
                            http_server.port());
    std::printf("cluster member '%s' (replication=%lld, %s)\n",
                cluster_id.c_str(),
                static_cast<long long>(args.GetInt("replication", 2)),
                args.Get("cluster-proxy", "on") != "off" ? "proxying"
                                                         : "redirecting");
  }
  std::printf("listening on http://%s:%u (POST /v1/decompose, "
              "GET|POST /v1/graphs, POST /v1/graphs/{name}/edges, "
              "POST /v1/admin/snapshot, GET /healthz, GET /statz, "
              "GET /metrics, GET /v1/traces[/{id}])\n",
              http_options.bind_address.c_str(), http_server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("signal received: draining\n");

  http_server.Stop();
  service.Shutdown(/*drain=*/true);

  // The drained process leaves its serving state in the log through the
  // one renderer of it, /statz, plus the cluster counters /statz lacks.
  if (node != nullptr) {
    const cluster::ClusterNode::Stats cs = node->stats();
    std::printf(
        "cluster: local_reads=%llu proxied=%llu redirected=%llu "
        "stale_rejects=%llu replicated_out=%llu replication_failures=%llu "
        "chain_syncs=%llu replicated_applies=%llu\n",
        static_cast<unsigned long long>(cs.local_reads),
        static_cast<unsigned long long>(cs.proxied),
        static_cast<unsigned long long>(cs.redirected),
        static_cast<unsigned long long>(cs.stale_rejects),
        static_cast<unsigned long long>(cs.replicated_out),
        static_cast<unsigned long long>(cs.replication_failures),
        static_cast<unsigned long long>(cs.chain_syncs),
        static_cast<unsigned long long>(cs.replicated_applies));
  }
  std::printf("statz: %s\n", frontend.RenderStatz().c_str());
  return 0;
}

// serve: register graphs in a GraphRegistry and drive a DecompositionService
// with a mixed tip/wing workload from concurrent clients. Each unique request
// that reaches the engine prints the same PeelStats block as the one-shot
// `decompose` / `wing` commands, so per-phase timings and wedge counters are
// directly comparable between service mode and one-shot runs.
int CmdServe(const Args& args) {
  service::GraphRegistry registry;
  std::vector<std::pair<std::string, std::string>> graph_files;
  for (const std::string& spec : SplitCommaList(args.Get("graphs"))) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      std::fprintf(stderr, "--graphs entries must be NAME=FILE, got '%s'\n",
                   spec.c_str());
      return 1;
    }
    graph_files.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  }
  const std::vector<std::string> datasets =
      SplitCommaList(args.Get("datasets"));
  for (const std::string& name : datasets) {
    bool known = false;
    for (const std::string& candidate : PaperAnalogueNames()) {
      known = known || candidate == name;
    }
    if (!known) {
      std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
      return 1;
    }
  }

  service::ServiceOptions service_options;
  service_options.num_workers = static_cast<int>(args.GetInt("workers", 2));
  // HTTP handlers wait on request futures; with no service workers nothing
  // would ever resolve them (no RunQueuedInline caller exists in serve
  // mode) and every decompose would hang until client disconnect.
  if (args.Has("http-port") && service_options.num_workers < 1) {
    std::fprintf(stderr, "--http-port requires --workers >= 1; using 1\n");
    service_options.num_workers = 1;
  }
  if (args.Has("cluster-id") && !args.Has("http-port")) {
    std::fprintf(stderr, "--cluster-id requires --http-port\n");
    return 1;
  }
  service_options.cache_bytes =
      static_cast<size_t>(args.GetInt("cache-mb", 64)) << 20;
  const int64_t queue_capacity = args.GetInt(
      "queue-capacity", static_cast<int64_t>(service_options.queue_capacity));
  if (queue_capacity < 1 || queue_capacity > (int64_t{1} << 20)) {
    std::fprintf(stderr, "--queue-capacity must be in [1, %lld], got %lld\n",
                 static_cast<long long>(int64_t{1} << 20),
                 static_cast<long long>(queue_capacity));
    return 1;
  }
  service_options.queue_capacity = static_cast<size_t>(queue_capacity);
  if (!ParseOnOff(args, "pin-numa", service_options.pin_numa,
                  &service_options.pin_numa)) {
    return 1;
  }
  const int64_t max_pending = args.GetInt(
      "max-pending-edges",
      static_cast<int64_t>(service_options.live_max_pending_edges));
  if (max_pending < 1) {
    std::fprintf(stderr, "--max-pending-edges must be >= 1\n");
    return 1;
  }
  service_options.live_max_pending_edges = static_cast<size_t>(max_pending);
  service_options.live_max_staleness_ms =
      static_cast<uint64_t>(args.GetInt("max-staleness-ms", 0));
  const double dirty_limit = args.GetDouble(
      "dirty-fraction-limit", service_options.live_dirty_fraction_limit);
  if (dirty_limit < 0.0 || dirty_limit > 1.0) {
    std::fprintf(stderr, "--dirty-fraction-limit must be in [0, 1]\n");
    return 1;
  }
  service_options.live_dirty_fraction_limit = dirty_limit;
  std::vector<service::LiveConfig> live_track;
  if (!ParseTrackSpecs(args.Get("live-track"), &live_track)) return 1;

  // Durability: with --data-dir the service journals every state change and
  // replays snapshot + journal on startup before serving anything.
  service_options.data_dir = args.Get("data-dir");
  if (!service_options.data_dir.empty()) {
    const std::string fsync = args.Get("fsync", "always");
    if (!durability::FsyncPolicyFromName(fsync,
                                         &service_options.durability_fsync)) {
      std::fprintf(stderr, "--fsync takes always, batch or off, got '%s'\n",
                   fsync.c_str());
      return 1;
    }
    const int64_t segment_mb = args.GetInt("journal-segment-mb", 64);
    if (segment_mb < 1 || segment_mb > 4096) {
      std::fprintf(stderr, "--journal-segment-mb must be in [1, 4096]\n");
      return 1;
    }
    service_options.journal_segment_bytes =
        static_cast<uint64_t>(segment_mb) << 20;
    if (!ParseOnOff(args, "snapshot-on-seal",
                    service_options.snapshot_on_seal,
                    &service_options.snapshot_on_seal)) {
      return 1;
    }
  } else if (args.Has("fsync") || args.Has("journal-segment-mb") ||
             args.Has("snapshot-on-seal")) {
    std::fprintf(stderr, "--fsync/--journal-segment-mb/--snapshot-on-seal "
                         "need --data-dir\n");
    return 1;
  }

  service::DecompositionService service(registry, service_options);
  if (!service.durability_error().empty()) {
    // Refusing to serve beats silently serving non-durable (or guessed)
    // state out of a directory the operator asked us to recover from.
    std::fprintf(stderr, "durability startup failed: %s\n",
                 service.durability_error().c_str());
    return 2;
  }
  if (service.durable()) {
    const durability::RecoveryReport& recovery = service.recovery_report();
    std::printf(
        "durability: data-dir=%s fsync=%s %s (snapshots=%llu records=%llu "
        "batches=%llu seals=%llu graphs=%llu torn_tail=%s in %.3fs)\n",
        service_options.data_dir.c_str(),
        durability::FsyncPolicyName(service_options.durability_fsync),
        recovery.fresh_start ? "fresh start" : "recovered",
        static_cast<unsigned long long>(recovery.snapshots_loaded),
        static_cast<unsigned long long>(recovery.records_scanned),
        static_cast<unsigned long long>(recovery.batches_replayed),
        static_cast<unsigned long long>(recovery.seals_replayed),
        static_cast<unsigned long long>(recovery.graphs_recovered),
        recovery.torn_tail ? "yes" : "no", recovery.seconds);
  }

  // Register requested graphs through the service so each registration is
  // journaled (a plain registry insert would vanish on restart).
  for (const auto& [name, path] : graph_files) {
    std::string error;
    if (service.RegisterGraphFile(name, path, nullptr, &error) !=
        service::Status::kOk) {
      std::fprintf(stderr, "failed to register '%s': %s\n", name.c_str(),
                   error.c_str());
      return 2;
    }
  }
  for (const std::string& name : datasets) {
    std::string error;
    if (service.RegisterGraph(name, MakePaperAnalogue(name), nullptr,
                              &error) != service::Status::kOk) {
      std::fprintf(stderr, "failed to register '%s': %s\n", name.c_str(),
                   error.c_str());
      return 2;
    }
  }
  const std::vector<std::string> names = registry.Names();
  if (names.empty() && !args.Has("http-port")) {
    std::fprintf(stderr, "need --graphs NAME=FILE,... or --datasets A,B\n");
    return 1;
  }
  for (const std::string& name : names) {
    const service::GraphHandle handle = registry.Acquire(name);
    std::printf("registered %s: |U|=%u |V|=%u |E|=%llu (epoch %llu)\n",
                name.c_str(), handle.graph().num_u(), handle.graph().num_v(),
                static_cast<unsigned long long>(handle.graph().num_edges()),
                static_cast<unsigned long long>(handle.epoch()));
  }

  // Pre-track requested live configurations on every registered graph, so
  // the very first sealed batch already runs incrementally.
  for (const std::string& name : names) {
    for (const service::LiveConfig& config : live_track) {
      std::string error;
      const service::Status status = service.live().Track(
          name, config, static_cast<int>(args.GetInt("threads", 2)), &error);
      if (status != service::Status::kOk) {
        std::fprintf(stderr, "live-track %s on %s failed: %s\n",
                     service::RequestKindName(config.kind), name.c_str(),
                     error.c_str());
        return 2;
      }
      std::printf("live-tracking %s %s (partitions=%u)\n", name.c_str(),
                  service::RequestKindName(config.kind), config.partitions);
    }
  }

  const service::DecompositionService::SchedulerStats sched =
      service.scheduler_stats();
  std::printf("scheduler: nodes=%d pinned=%s workers=%d\n", sched.num_nodes,
              sched.pinned ? "yes" : "no", service.num_workers());

  if (args.Has("http-port")) return ServeHttp(args, registry, service);

  const int clients = static_cast<int>(args.GetInt("clients", 2));
  const int total_requests = static_cast<int>(args.GetInt("requests", 12));
  const int threads = static_cast<int>(args.GetInt("threads", 2));
  const int partitions = static_cast<int>(args.GetInt("partitions", 8));

  // The request mix: cycle (graph × kind/algorithm) so repeats exercise the
  // cache and concurrent duplicates exercise coalescing.
  struct KindAlgo {
    service::RequestKind kind;
    service::Algorithm algorithm;
  };
  const KindAlgo mix[] = {
      {service::RequestKind::kTipU, service::Algorithm::kReceipt},
      {service::RequestKind::kTipV, service::Algorithm::kReceipt},
      {service::RequestKind::kWing, service::Algorithm::kReceiptWing},
  };
  std::vector<service::Request> schedule;
  for (int i = 0; i < total_requests; ++i) {
    const KindAlgo& ka = mix[static_cast<size_t>(i) % std::size(mix)];
    service::Request request;
    request.graph = names[static_cast<size_t>(i) % names.size()];
    request.kind = ka.kind;
    request.algorithm = ka.algorithm;
    request.partitions = partitions;
    request.threads = threads;
    schedule.push_back(std::move(request));
  }

  std::mutex print_mutex;
  std::set<std::string> reported;  // unique requests whose stats printed
  std::atomic<int> failed_requests{0};
  const WallTimer serve_timer;
  std::vector<std::thread> client_threads;
  for (int c = 0; c < std::max(1, clients); ++c) {
    client_threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < schedule.size();
           i += static_cast<size_t>(std::max(1, clients))) {
        const service::Request& request = schedule[i];
        const service::Response response = service.Execute(request);
        std::lock_guard<std::mutex> lock(print_mutex);
        std::printf("[client %d] %s %s %s -> %s%s%s\n", c,
                    request.graph.c_str(),
                    service::RequestKindName(request.kind),
                    service::AlgorithmName(request.algorithm),
                    service::StatusName(response.status),
                    response.cache_hit ? " (cache hit)" : "",
                    response.coalesced ? " (coalesced)" : "");
        if (response.status != service::Status::kOk) {
          std::fprintf(stderr, "request failed: %s\n",
                       response.error.c_str());
          ++failed_requests;
          continue;
        }
        const std::string key =
            request.graph + "/" + service::RequestKindName(request.kind) +
            "/" + service::AlgorithmName(request.algorithm);
        if (!response.cache_hit && reported.insert(key).second) {
          std::printf("%s on %s: max=%llu\n%s\n", key.c_str(),
                      request.graph.c_str(),
                      static_cast<unsigned long long>(
                          response.payload->numbers.empty()
                              ? 0
                              : *std::max_element(
                                    response.payload->numbers.begin(),
                                    response.payload->numbers.end())),
                      response.payload->stats.ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double seconds = serve_timer.Seconds();
  service.Shutdown();

  const service::DecompositionService::Stats stats = service.stats();
  const service::ResultCache::Stats cache = service.cache_stats();
  std::printf(
      "served %llu requests in %.3fs: engine_runs=%llu cache_hits=%llu "
      "coalesced=%llu batched=%llu cancelled=%llu\n",
      static_cast<unsigned long long>(stats.submitted), seconds,
      static_cast<unsigned long long>(stats.engine_runs),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.batched_follow_ons),
      static_cast<unsigned long long>(stats.cancelled));
  std::printf("cache: entries=%llu bytes=%llu evictions=%llu\n",
              static_cast<unsigned long long>(cache.entries),
              static_cast<unsigned long long>(cache.bytes),
              static_cast<unsigned long long>(cache.evictions));
  const service::DecompositionService::SchedulerStats final_sched =
      service.scheduler_stats();
  std::printf(
      "scheduler: nodes=%d pinned=%s local_pops=%llu remote_steals=%llu\n",
      final_sched.num_nodes, final_sched.pinned ? "yes" : "no",
      static_cast<unsigned long long>(final_sched.local_pops),
      static_cast<unsigned long long>(final_sched.remote_steals));
  std::printf("workspace growths (all worker pools): %llu\n",
              static_cast<unsigned long long>(service.WorkspaceGrowths()));
  if (failed_requests.load() > 0) {
    std::fprintf(stderr, "%d request(s) failed\n", failed_requests.load());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help") {
    Usage();
    return 0;
  }
  const Args args(argc, argv);
  if (command == "generate") return CmdGenerate(args);
  if (command == "stats") return CmdStats(args);
  if (command == "decompose") return CmdDecompose(args);
  if (command == "wing") return CmdWing(args);
  if (command == "serve") return CmdServe(args);
  if (command == "router") return CmdRouter(args);
  if (command == "update") return CmdUpdate(args);
  return Usage();
}
