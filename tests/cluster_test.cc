// Replicated-serving suite (`ctest -L cluster`): hash-ring placement,
// replica fan-out over real loopback HTTP, router failover, crash/rejoin
// at the recorded epoch, and the offline PRAM trace checker.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/consistency.h"
#include "cluster/hash_ring.h"
#include "cluster/http_client.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "obs/client_trace.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "util/json.h"

namespace receipt::cluster {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/receipt_cluster_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Hash ring
// ---------------------------------------------------------------------------

TEST(HashRingTest, OwnershipIsDeterministicAndOrderIndependent) {
  const HashRing ring_abc({"a", "b", "c"});
  const HashRing ring_cba({"c", "b", "a"});
  const std::set<std::string> members = {"a", "b", "c"};
  std::set<std::string> owners_seen;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "graph-" + std::to_string(i);
    const std::string& owner = ring_abc.Owner(key);
    EXPECT_TRUE(members.count(owner)) << key;
    EXPECT_EQ(owner, ring_cba.Owner(key)) << key;
    owners_seen.insert(owner);
  }
  // 64 vnodes per member over 200 keys: every member owns something.
  EXPECT_EQ(owners_seen.size(), 3u);
}

TEST(HashRingTest, HoldersAreDistinctOwnerFirstAndCapped) {
  const HashRing ring({"a", "b", "c"});
  for (int i = 0; i < 50; ++i) {
    const std::string key = "g" + std::to_string(i);
    const std::vector<std::string> holders = ring.Holders(key, 2);
    ASSERT_EQ(holders.size(), 2u);
    EXPECT_EQ(holders[0], ring.Owner(key));
    EXPECT_NE(holders[0], holders[1]);
    // Asking for more members than exist returns them all, once each.
    const std::vector<std::string> all = ring.Holders(key, 10);
    EXPECT_EQ(all.size(), 3u);
    EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), 3u);
  }
}

TEST(HashRingTest, RemovingAMemberRemapsOnlyItsOwnKeys) {
  const HashRing before({"a", "b", "c"});
  const HashRing after({"a", "b"});
  int moved = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "graph-" + std::to_string(i);
    if (before.Owner(key) == "c") {
      ++moved;
      continue;  // c's keys must land somewhere else; anywhere is legal
    }
    EXPECT_EQ(before.Owner(key), after.Owner(key)) << key;
  }
  EXPECT_GT(moved, 0);    // c owned a share...
  EXPECT_LT(moved, 500);  // ...but not everything
}

TEST(HashRingTest, DuplicateIdsCollapse) {
  const HashRing ring({"a", "a", "b"});
  EXPECT_EQ(ring.members().size(), 2u);
}

// ---------------------------------------------------------------------------
// Member-spec parsing
// ---------------------------------------------------------------------------

TEST(ParseClusterMembersTest, AcceptsHostPortAndBarePortForms) {
  std::vector<ClusterMember> members;
  std::string error;
  ASSERT_TRUE(
      ParseClusterMembers("a=10.0.0.1:18201,b=18202", &members, &error))
      << error;
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].id, "a");
  EXPECT_EQ(members[0].host, "10.0.0.1");
  EXPECT_EQ(members[0].port, 18201);
  EXPECT_EQ(members[1].host, "127.0.0.1");
  EXPECT_EQ(members[1].port, 18202);
}

TEST(ParseClusterMembersTest, RejectsMalformedSpecs) {
  std::vector<ClusterMember> members;
  std::string error;
  EXPECT_FALSE(ParseClusterMembers("a", &members, &error));
  EXPECT_FALSE(ParseClusterMembers("=18201", &members, &error));
  EXPECT_FALSE(ParseClusterMembers("a=notaport", &members, &error));
}

// ---------------------------------------------------------------------------
// PRAM checker
// ---------------------------------------------------------------------------

TraceOp Op(uint64_t seq, const std::string& client, bool read,
           const std::string& graph, uint64_t epoch) {
  TraceOp op;
  op.seq = seq;
  op.client = client;
  op.read = read;
  op.graph = graph;
  op.epoch = epoch;
  op.request_id = "r" + std::to_string(seq);
  op.file = "test";
  op.line = seq + 1;
  return op;
}

TEST(ConsistencyTest, LegalHistoryPasses) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1), Op(1, "c1", true, "g", 1),
      Op(2, "c2", true, "g", 1),  Op(3, "c1", false, "g", 2),
      Op(4, "c2", true, "g", 2),  Op(5, "c1", true, "g", 2),
      // Unsealed batches repeat the epoch: writes are non-strict.
      Op(6, "c1", false, "g", 2), Op(7, "c2", true, "g", 2),
  };
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ConsistencyTest, ReadGoingBackwardsIsReadMonotonicViolation) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1), Op(1, "c1", false, "g", 2),
      Op(2, "c2", true, "g", 2),  Op(3, "c2", true, "g", 1),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "read-monotonic");
  EXPECT_EQ(violation->first.seq, 2u);
  EXPECT_EQ(violation->second.seq, 3u);
}

TEST(ConsistencyTest, ReadBelowOwnAckedWriteIsReadYourWritesViolation) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1),
      Op(1, "c1", false, "g", 2),
      Op(2, "c1", true, "g", 1),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "read-your-writes");
  EXPECT_EQ(violation->first.seq, 1u);
  EXPECT_EQ(violation->second.seq, 2u);
}

TEST(ConsistencyTest, RegressingAckedWritesIsWriteMonotonicViolation) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 3),
      Op(1, "c1", false, "g", 2),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "write-monotonic");
}

TEST(ConsistencyTest, ReadOfEpochNoWriteProducedIsFlagged) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1),
      Op(1, "c1", false, "g", 2),
      Op(2, "c2", true, "g", 7),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "read-of-unwritten-epoch");
}

TEST(ConsistencyTest, GraphsWithNoTracedWritesAreExemptFromWriteSet) {
  // Pre-registered graphs are read at epochs no traced write produced;
  // that is legal as long as the per-client reads stay monotonic.
  const std::vector<TraceOp> ops = {
      Op(0, "c1", true, "seeded", 5),
      Op(1, "c1", true, "seeded", 5),
  };
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ConsistencyTest, StreamsAreIndependentPerClientAndGraph) {
  // Epoch orderings interleaved across clients/graphs are fine; PRAM only
  // constrains each (client, graph) stream.
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g1", 1), Op(1, "c2", false, "g2", 5),
      Op(2, "c1", true, "g1", 1),  Op(3, "c2", true, "g2", 5),
      Op(4, "c1", true, "g2", 5),  Op(5, "c2", true, "g1", 1),
  };
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ConsistencyTest, ViolationFormatNamesBothOps) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 2),
      Op(1, "c1", true, "g", 1),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  const std::string text = FormatViolation(*violation);
  EXPECT_NE(text.find("violating pair"), std::string::npos);
  EXPECT_NE(text.find("seq=0"), std::string::npos);
  EXPECT_NE(text.find("seq=1"), std::string::npos);
}

TEST(ClientTraceTest, LogAndParserRoundTrip) {
  TempDir dir;
  const std::string path = dir.path() + "/trace.jsonl";
  {
    obs::ClientTraceLog log;
    std::string error;
    ASSERT_TRUE(log.Open(path, &error)) << error;
    obs::ClientTraceRecord record;
    record.client = "c1";
    record.read = false;
    record.graph = "g";
    record.epoch = 1;
    record.request_id = "req-1";
    log.Record(record);
    record.read = true;
    record.request_id = "req-2";
    log.Record(record);
    EXPECT_EQ(log.records_written(), 2u);
  }
  std::vector<TraceOp> ops;
  std::string error;
  ASSERT_TRUE(ParseTraceFile(path, &ops, &error)) << error;
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].client, "c1");
  EXPECT_FALSE(ops[0].read);
  EXPECT_EQ(ops[0].graph, "g");
  EXPECT_EQ(ops[0].epoch, 1u);
  EXPECT_EQ(ops[0].request_id, "req-1");
  EXPECT_TRUE(ops[1].read);
  EXPECT_EQ(ops[1].seq, 1u);
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ClientTraceTest, ParserRejectsMistypedRecords) {
  TempDir dir;
  const std::string path = dir.path() + "/bad.jsonl";
  std::ofstream(path) << "{\"seq\":0,\"client\":\"c\",\"op\":\"peek\","
                         "\"graph\":\"g\",\"epoch\":1,\"request_id\":\"r\"}\n";
  std::vector<TraceOp> ops;
  std::string error;
  EXPECT_FALSE(ParseTraceFile(path, &ops, &error));
  EXPECT_NE(error.find(":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// In-process replica set
// ---------------------------------------------------------------------------

/// One replica process' worth of stack, in-process: registry + service +
/// frontend (no routes) + cluster node on an ephemeral port.
struct TestReplica {
  std::string id;
  std::unique_ptr<service::GraphRegistry> registry;
  std::unique_ptr<service::DecompositionService> service;
  std::unique_ptr<server::HttpServer> server;
  std::unique_ptr<server::DecompositionHttpFrontend> frontend;
  std::unique_ptr<ClusterNode> node;

  void Start(const std::string& self_id,
             const std::vector<std::string>& member_ids, size_t replication,
             bool proxy, const std::string& data_dir) {
    id = self_id;
    registry = std::make_unique<service::GraphRegistry>();
    service::ServiceOptions service_options;
    service_options.num_workers = 1;
    service_options.data_dir = data_dir;
    service = std::make_unique<service::DecompositionService>(*registry,
                                                              service_options);
    ASSERT_TRUE(service->durability_error().empty())
        << service->durability_error();
    server::HttpServerOptions http_options;
    http_options.port = 0;
    http_options.num_threads = 2;
    server = std::make_unique<server::HttpServer>(http_options);
    frontend = std::make_unique<server::DecompositionHttpFrontend>(
        *registry, *service, *server, /*register_routes=*/false);
    ClusterNodeOptions options;
    options.self_id = self_id;
    for (const std::string& member : member_ids) {
      options.members.push_back(ClusterMember{member, "127.0.0.1", 0});
    }
    options.replication_factor = replication;
    options.proxy = proxy;
    options.peer_timeout_ms = 5000;
    node = std::make_unique<ClusterNode>(options, *registry, *service,
                                         *frontend, *server);
    std::string error;
    ASSERT_TRUE(server->Start(&error)) << error;
  }

  void Stop() {
    if (server != nullptr) server->Stop();
    node.reset();
    frontend.reset();
    if (service != nullptr) service->Shutdown(/*drain=*/true);
    service.reset();
    server.reset();
    registry.reset();
  }

  uint16_t port() const { return server->port(); }
};

class ClusterFixture : public ::testing::Test {
 protected:
  static constexpr size_t kReplication = 2;

  void StartCluster(bool proxy = true, bool durable = false) {
    ids_ = {"a", "b", "c"};
    for (const std::string& id : ids_) {
      replicas_[id] = std::make_unique<TestReplica>();
      const std::string data_dir =
          durable ? dir_.path() + "/data-" + id : std::string();
      if (durable) std::filesystem::create_directories(data_dir);
      replicas_[id]->Start(id, ids_, kReplication, proxy, data_dir);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    ConnectAll();
  }

  /// Every node learns every member's bound (ephemeral) port.
  void ConnectAll() {
    for (auto& [id, replica] : replicas_) {
      if (replica->node == nullptr) continue;
      for (auto& [peer_id, peer] : replicas_) {
        if (peer->server != nullptr) {
          replica->node->SetMemberEndpoint(peer_id, "127.0.0.1",
                                           peer->port());
        }
      }
    }
  }

  void TearDown() override {
    for (auto& [id, replica] : replicas_) replica->Stop();
  }

  HttpClientResponse Post(
      uint16_t port, const std::string& path, const std::string& body,
      std::vector<std::pair<std::string, std::string>> headers = {}) {
    HttpClientResponse response;
    std::string error;
    EXPECT_TRUE(client_.Post("127.0.0.1", port, path, body, headers,
                             &response, &error))
        << path << ": " << error;
    return response;
  }

  HttpClientResponse Get(uint16_t port, const std::string& path) {
    HttpClientResponse response;
    std::string error;
    EXPECT_TRUE(client_.Get("127.0.0.1", port, path, &response, &error))
        << path << ": " << error;
    return response;
  }

  /// Registers a 60x60 random graph under `name` through the node at
  /// `port` (any member: non-owners forward to the owner).
  void RegisterGraph(uint16_t port, const std::string& name) {
    const std::string file = dir_.path() + "/" + name + ".konect";
    ASSERT_TRUE(SaveKonect(RandomBipartite(60, 60, 400, /*seed=*/11), file));
    const auto response =
        Post(port, "/v1/graphs",
             "{\"name\":\"" + name + "\",\"path\":\"" + file + "\"}");
    ASSERT_EQ(response.status, 200) << response.body;
  }

  static std::vector<uint64_t> Numbers(const std::string& body) {
    const auto json = util::JsonValue::Parse(body);
    std::vector<uint64_t> numbers;
    if (!json.has_value()) return numbers;
    const util::JsonValue* array = json->Find("numbers");
    if (array == nullptr) return numbers;
    for (const util::JsonValue& item : array->Items()) {
      numbers.push_back(item.AsUint());
    }
    return numbers;
  }

  static uint64_t UintField(const std::string& body, const std::string& key) {
    const auto json = util::JsonValue::Parse(body);
    if (!json.has_value()) return 0;
    const util::JsonValue* field = json->Find(key);
    return field != nullptr && field->IsInt() ? field->AsUint() : 0;
  }

  TestReplica& Owner(const std::string& graph) {
    const HashRing ring(ids_);
    return *replicas_[ring.Owner(graph)];
  }

  std::vector<std::string> Holders(const std::string& graph) {
    return HashRing(ids_).Holders(graph, kReplication);
  }

  TempDir dir_;
  std::vector<std::string> ids_;
  std::map<std::string, std::unique_ptr<TestReplica>> replicas_;
  HttpClient client_{2000};
};

constexpr const char* kDecomposeBody =
    "{\"graph\":\"g\",\"kind\":\"tip-U\",\"partitions\":6}";

TEST_F(ClusterFixture, RegisterReplicatesToExactlyTheHolders) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");
  const std::set<std::string> holders = [this] {
    const auto list = Holders("g");
    return std::set<std::string>(list.begin(), list.end());
  }();
  ASSERT_EQ(holders.size(), kReplication);
  for (const std::string& id : ids_) {
    const auto info = Get(replicas_[id]->port(), "/v1/cluster/info");
    ASSERT_EQ(info.status, 200);
    const bool resident =
        info.body.find("\"name\":\"g\"") != std::string::npos;
    EXPECT_EQ(resident, holders.count(id) > 0) << id << ": " << info.body;
  }
}

TEST_F(ClusterFixture, SealedBatchesReplicateBitIdentically) {
  StartCluster();
  RegisterGraph(replicas_["b"]->port(), "g");
  const auto sealed =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":1,\"v\":2},"
           "{\"op\":\"insert\",\"u\":3,\"v\":4}],\"seal\":true}");
  ASSERT_EQ(sealed.status, 200) << sealed.body;
  EXPECT_EQ(UintField(sealed.body, "epoch"), 2u);

  std::vector<std::vector<uint64_t>> per_holder;
  for (const std::string& id : Holders("g")) {
    const auto response =
        Post(replicas_[id]->port(), "/v1/decompose", kDecomposeBody);
    ASSERT_EQ(response.status, 200) << id << ": " << response.body;
    EXPECT_EQ(UintField(response.body, "graph_epoch"), 2u) << id;
    per_holder.push_back(Numbers(response.body));
    ASSERT_FALSE(per_holder.back().empty()) << id;
  }
  ASSERT_EQ(per_holder.size(), kReplication);
  EXPECT_EQ(per_holder[0], per_holder[1]);
}

TEST_F(ClusterFixture, WritesThroughAnyMemberLandOnTheOwnerChain) {
  StartCluster();
  RegisterGraph(replicas_["c"]->port(), "g");
  // Push a sealed batch through every member in turn: each must forward
  // to the owner and come back with the next epoch in the chain.
  uint64_t expected_epoch = 1;
  for (const std::string& id : ids_) {
    const auto response =
        Post(replicas_[id]->port(), "/v1/graphs/g/edges",
             "{\"edges\":[{\"op\":\"insert\",\"u\":5,\"v\":" +
                 std::to_string(10 + expected_epoch) + "}],\"seal\":true}");
    ASSERT_EQ(response.status, 200) << id << ": " << response.body;
    ++expected_epoch;
    EXPECT_EQ(UintField(response.body, "epoch"), expected_epoch) << id;
  }
}

TEST_F(ClusterFixture, NonHolderRedirectsWhenProxyingIsOff) {
  StartCluster(/*proxy=*/false);
  RegisterGraph(Owner("g").port(), "g");
  const auto holders = Holders("g");
  const std::set<std::string> holder_set(holders.begin(), holders.end());
  for (const std::string& id : ids_) {
    if (holder_set.count(id)) continue;
    const auto response =
        Post(replicas_[id]->port(), "/v1/decompose", kDecomposeBody);
    EXPECT_EQ(response.status, 307) << id << ": " << response.body;
    const auto location = response.headers.find("location");
    ASSERT_NE(location, response.headers.end());
    EXPECT_NE(location->second.find("/v1/decompose"), std::string::npos);
  }
}

TEST_F(ClusterFixture, StaleReplicaRejectsReadsBelowTheMinEpoch) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");
  const std::string follower = Holders("g")[1];
  const auto stale = Post(replicas_[follower]->port(), "/v1/decompose",
                          kDecomposeBody, {{"X-Cluster-Min-Epoch", "99"}});
  EXPECT_EQ(stale.status, 412) << stale.body;
  const auto fresh = Post(replicas_[follower]->port(), "/v1/decompose",
                          kDecomposeBody, {{"X-Cluster-Min-Epoch", "1"}});
  EXPECT_EQ(fresh.status, 200) << fresh.body;
}

TEST_F(ClusterFixture, RouterSpreadsReadsAndFailsOverWhenAHolderDies) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");

  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = kReplication;
  options.health_interval_ms = 0;  // passive marking only: deterministic
  options.trace_log_path = dir_.path() + "/trace.jsonl";
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;

  const std::vector<std::pair<std::string, std::string>> as_c1 = {
      {"X-Client-Id", "c1"}};
  auto first = Post(router.port(), "/v1/decompose", kDecomposeBody, as_c1);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_FALSE(first.headers["x-request-id"].empty());
  const std::vector<uint64_t> baseline = Numbers(first.body);

  // Kill one holder outright; reads must keep succeeding via the other.
  const std::string victim = Holders("g")[1];
  replicas_[victim]->Stop();
  for (int i = 0; i < 6; ++i) {
    const auto response =
        Post(router.port(), "/v1/decompose", kDecomposeBody, as_c1);
    ASSERT_EQ(response.status, 200) << i << ": " << response.body;
    EXPECT_EQ(Numbers(response.body), baseline) << i;
  }
  const Router::Stats stats = router.stats();
  EXPECT_GE(stats.reads_routed, 7u);
  EXPECT_EQ(stats.no_replica, 0u);
  router.Stop();

  // The trace the router wrote is parseable and PRAM-consistent.
  std::vector<TraceOp> ops;
  ASSERT_TRUE(ParseTraceFile(options.trace_log_path, &ops, &error)) << error;
  EXPECT_EQ(ops.size(), 7u);
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST_F(ClusterFixture, RouterEchoesTheCallersRequestId) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");
  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = kReplication;
  options.health_interval_ms = 0;
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;
  const auto response = Post(router.port(), "/v1/decompose", kDecomposeBody,
                             {{"X-Request-Id", "00000000deadbeef"}});
  EXPECT_EQ(response.status, 200) << response.body;
  const auto echoed = response.headers.find("x-request-id");
  ASSERT_NE(echoed, response.headers.end());
  EXPECT_EQ(echoed->second, "00000000deadbeef");
  EXPECT_EQ(UintField(response.body, "graph_epoch"), 1u);
  router.Stop();
}

TEST_F(ClusterFixture, CrashedFollowerRejoinsFromItsOwnDataDir) {
  StartCluster(/*proxy=*/true, /*durable=*/true);
  RegisterGraph(Owner("g").port(), "g");
  const auto sealed =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":7,\"v\":9}],\"seal\":true}");
  ASSERT_EQ(sealed.status, 200) << sealed.body;

  // "Crash" the follower, then write a sealed batch it never sees.
  const std::string follower = Holders("g")[1];
  replicas_[follower]->Stop();
  const auto missed =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":8,\"v\":2}],\"seal\":true}");
  ASSERT_EQ(missed.status, 200) << missed.body;
  EXPECT_EQ(UintField(missed.body, "epoch"), 3u);

  // Rejoin from its own journal: recovers to the epoch it saw (2).
  replicas_[follower] = std::make_unique<TestReplica>();
  replicas_[follower]->Start(follower, ids_, kReplication, /*proxy=*/true,
                             dir_.path() + "/data-" + follower);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ConnectAll();
  const auto info = Get(replicas_[follower]->port(), "/v1/cluster/info");
  EXPECT_NE(info.body.find("\"epoch\":2"), std::string::npos) << info.body;

  // The next replicated batch 409s on the diverged chain and triggers a
  // full-state sync; after it the follower is bit-identical to the owner.
  const auto converge =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":9,\"v\":5}],\"seal\":true}");
  ASSERT_EQ(converge.status, 200) << converge.body;
  EXPECT_EQ(UintField(converge.body, "epoch"), 4u);
  EXPECT_GE(Owner("g").node->stats().chain_syncs, 1u);

  const auto from_owner =
      Post(Owner("g").port(), "/v1/decompose", kDecomposeBody);
  const auto from_follower =
      Post(replicas_[follower]->port(), "/v1/decompose", kDecomposeBody);
  ASSERT_EQ(from_owner.status, 200) << from_owner.body;
  ASSERT_EQ(from_follower.status, 200) << from_follower.body;
  EXPECT_EQ(UintField(from_follower.body, "graph_epoch"), 4u);
  EXPECT_EQ(Numbers(from_owner.body), Numbers(from_follower.body));
}

// An unsealed batch does not advance the epoch, so a follower that was
// down for one rejoins on the owner's epoch with a shorter buffer. The
// next replicated batch must not pass the chain check on the epoch alone:
// the follower answers 409 on the buffer length and the owner syncs it,
// instead of both sealing the same epoch over different edge sets.
TEST_F(ClusterFixture, FollowerThatMissedAnUnsealedBatchResyncs) {
  StartCluster(/*proxy=*/true, /*durable=*/true);
  RegisterGraph(Owner("g").port(), "g");
  const std::string follower = Holders("g")[1];
  const std::vector<BipartiteGraph::Edge> before =
      Owner("g").registry->Acquire("g").graph().ToEdges();
  for (const BipartiteGraph::Edge added :
       {BipartiteGraph::Edge{1, 2}, BipartiteGraph::Edge{3, 4},
        BipartiteGraph::Edge{5, 6}}) {
    ASSERT_EQ(std::count(before.begin(), before.end(), added), 0);
  }

  replicas_[follower]->Stop();
  const auto unsealed = Post(Owner("g").port(), "/v1/graphs/g/edges",
                             "{\"edges\":[{\"op\":\"insert\",\"u\":1,\"v\":2},"
                             "{\"op\":\"insert\",\"u\":3,\"v\":4}]}");
  ASSERT_EQ(unsealed.status, 200) << unsealed.body;

  replicas_[follower] = std::make_unique<TestReplica>();
  replicas_[follower]->Start(follower, ids_, kReplication, /*proxy=*/true,
                             dir_.path() + "/data-" + follower);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ConnectAll();

  const auto sealed =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":5,\"v\":6}],\"seal\":true}");
  ASSERT_EQ(sealed.status, 200) << sealed.body;
  EXPECT_GE(Owner("g").node->stats().chain_syncs, 1u);

  const service::GraphHandle owner = Owner("g").registry->Acquire("g");
  const service::GraphHandle replica =
      replicas_[follower]->registry->Acquire("g");
  ASSERT_TRUE(static_cast<bool>(replica));
  EXPECT_EQ(replica.epoch(), owner.epoch());
  EXPECT_EQ(replica.graph().num_edges(), owner.graph().num_edges());
  EXPECT_EQ(replica.graph().ToEdges(), owner.graph().ToEdges());
  EXPECT_EQ(owner.graph().num_edges(), before.size() + 3);
}

// Replica-to-replica bodies are untrusted input too: a shape or edge the
// graph build cannot hold must be a 400, never an abort of the replica.
TEST_F(ClusterFixture, MalformedClusterRegisterAndSyncBodiesAre400) {
  StartCluster();
  const uint16_t port = replicas_["a"]->port();
  const std::string kHead = "{\"name\":\"x\",\"epoch\":5,";
  const std::vector<std::string> graph_bodies = {
      kHead + "\"num_u\":2,\"num_v\":2,\"edges\":[[7,0]]}",
      kHead + "\"num_u\":2,\"num_v\":2,\"edges\":[[0,2]]}",
      kHead + "\"num_u\":2,\"num_v\":2,\"edges\":[[-1,0]]}",
      kHead + "\"num_u\":2,\"num_v\":2,\"edges\":[[0]]}",
      kHead + "\"num_u\":4294967296,\"num_v\":1,\"edges\":[]}",
      kHead + "\"num_u\":4294967295,\"num_v\":1,\"edges\":[]}",
      kHead + "\"num_u\":-1,\"num_v\":1,\"edges\":[]}",
      kHead + "\"num_u\":9223372036854775807,\"num_v\":1,\"edges\":[]}",
      kHead + "\"num_u\":2,\"num_v\":2,\"edges\":{}}",
  };
  for (const char* path : {"/v1/cluster/register", "/v1/cluster/sync"}) {
    for (const std::string& body : graph_bodies) {
      const auto response = Post(port, path, body);
      EXPECT_EQ(response.status, 400) << path << " " << body << ": "
                                      << response.body;
    }
  }
  // Sync's pending buffer goes through the same edge-batch codec: unknown
  // ops and ids past 32 bits are refused, and so are updates outside the
  // synced shape — all before anything is installed.
  const std::string sync_head =
      kHead + "\"num_u\":2,\"num_v\":2,\"edges\":[[0,0]],\"pending\":";
  for (const std::string& pending :
       {std::string("[{\"op\":\"x\",\"u\":0,\"v\":0}]"),
        std::string("[{\"op\":\"+\",\"u\":4294967296,\"v\":0}]"),
        std::string("[{\"op\":\"+\",\"u\":1,\"v\":9}]"),
        std::string("{}")}) {
    const auto response =
        Post(port, "/v1/cluster/sync", sync_head + pending + "}");
    EXPECT_EQ(response.status, 400) << pending << ": " << response.body;
  }
  EXPECT_EQ(Get(port, "/healthz").status, 200);
  EXPECT_FALSE(static_cast<bool>(replicas_["a"]->registry->Acquire("x")));

  // The well-formed version of the same body installs the graph.
  const auto ok = Post(port, "/v1/cluster/sync",
                       sync_head + "[{\"op\":\"-\",\"u\":0,\"v\":0}]}");
  ASSERT_EQ(ok.status, 200) << ok.body;
  EXPECT_EQ(replicas_["a"]->registry->Acquire("x").epoch(), 5u);
  EXPECT_EQ(replicas_["a"]->service->live().PendingEdges("x"), 1u);
}

TEST_F(ClusterFixture, ReplicatedBatchOffTheLocalChainIs409) {
  StartCluster();
  const uint16_t port = replicas_["a"]->port();
  ASSERT_EQ(Post(port, "/v1/cluster/register",
                 "{\"name\":\"x\",\"epoch\":5,\"num_u\":2,\"num_v\":2,"
                 "\"edges\":[[0,0]]}")
                .status,
            200);
  const std::string edges = "\"edges\":[{\"op\":\"+\",\"u\":1,\"v\":1}]}";
  const auto diverged =
      Post(port, "/v1/cluster/edges",
           "{\"graph\":\"x\",\"expected_epoch\":4," + edges);
  EXPECT_EQ(diverged.status, 409) << diverged.body;
  EXPECT_EQ(UintField(diverged.body, "current_epoch"), 5u);
  // A malformed batch on the right chain is a plain 400, not a resync.
  const auto outside =
      Post(port, "/v1/cluster/edges",
           "{\"graph\":\"x\",\"expected_epoch\":5,"
           "\"edges\":[{\"u\":1,\"v\":7}]}");
  EXPECT_EQ(outside.status, 400) << outside.body;
  const auto applied =
      Post(port, "/v1/cluster/edges",
           "{\"graph\":\"x\",\"expected_epoch\":5," + edges);
  EXPECT_EQ(applied.status, 200) << applied.body;
  // The owner's buffer length is part of the chain: one unsealed update is
  // buffered now, so a batch expecting an empty buffer is off the chain.
  const auto short_buffer =
      Post(port, "/v1/cluster/edges",
           "{\"graph\":\"x\",\"expected_epoch\":5,"
           "\"expected_pending\":0," + edges);
  EXPECT_EQ(short_buffer.status, 409) << short_buffer.body;
  const auto on_chain =
      Post(port, "/v1/cluster/edges",
           "{\"graph\":\"x\",\"expected_epoch\":5,"
           "\"expected_pending\":1," + edges);
  EXPECT_EQ(on_chain.status, 200) << on_chain.body;
}

TEST_F(ClusterFixture, RouteEndpointAgreesAcrossAllMembers) {
  StartCluster();
  std::string expected;
  for (const std::string& id : ids_) {
    const auto response =
        Get(replicas_[id]->port(), "/v1/cluster/route?graph=g");
    ASSERT_EQ(response.status, 200);
    const auto json = util::JsonValue::Parse(response.body);
    ASSERT_TRUE(json.has_value());
    std::string owner;
    ASSERT_TRUE(json->GetString("owner", &owner));
    if (expected.empty()) expected = owner;
    EXPECT_EQ(owner, expected) << id;
  }
  EXPECT_EQ(expected, HashRing(ids_).Owner("g"));
}

TEST_F(ClusterFixture, RouteQueryMatchesTheGraphKeyExactly) {
  StartCluster();
  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = kReplication;
  options.health_interval_ms = 0;
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;

  // A key that merely ends in "graph" must not be read as the graph.
  for (const uint16_t port : {router.port(), replicas_["a"]->port()}) {
    const auto routed = Get(port, "/v1/cluster/route?subgraph=x&graph=g");
    ASSERT_EQ(routed.status, 200) << port << ": " << routed.body;
    const auto json = util::JsonValue::Parse(routed.body);
    ASSERT_TRUE(json.has_value());
    std::string graph;
    std::string owner;
    ASSERT_TRUE(json->GetString("graph", &graph));
    ASSERT_TRUE(json->GetString("owner", &owner));
    EXPECT_EQ(graph, "g") << port;
    EXPECT_EQ(owner, HashRing(ids_).Owner("g")) << port;
    EXPECT_EQ(Get(port, "/v1/cluster/route?subgraph=x").status, 400) << port;
  }
  router.Stop();
}

}  // namespace
}  // namespace receipt::cluster
