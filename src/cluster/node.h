#ifndef RECEIPT_CLUSTER_NODE_H_
#define RECEIPT_CLUSTER_NODE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/http_client.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"

namespace receipt::cluster {

struct ClusterMember {
  std::string id;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Parses "a=127.0.0.1:18201,b=127.0.0.1:18202" (host defaults to
/// 127.0.0.1 when "id=port" is given). False + `error` on malformed specs.
bool ParseClusterMembers(const std::string& spec,
                         std::vector<ClusterMember>* out, std::string* error);

struct ClusterNodeOptions {
  std::string self_id;
  std::vector<ClusterMember> members;
  /// Copies of each graph, owner included. Placement is the first
  /// `replication_factor` distinct members clockwise on the hash ring.
  size_t replication_factor = 2;
  /// True: a non-holder answers for the owner by proxying server-side.
  /// False: it answers 307 with a Location header and the client retries.
  bool proxy = true;
  int peer_timeout_ms = 5000;
};

/// One replica process of the sharded serving tier. Wraps the single-node
/// stack (registry + service + HTTP frontend) with cluster-aware routes:
///
///   reads   /v1/decompose is served locally whenever the graph is
///           resident (any holder — reads scale with the replication
///           factor), honoring X-Cluster-Min-Epoch: a replica whose chain
///           is behind answers 412 so the router can fail over without
///           ever serving a client a past epoch.
///   writes  /v1/graphs and /v1/graphs/{name}/edges are applied by the
///           shard owner (non-owners proxy or redirect). The owner
///           journals + applies locally first, then fans the batch out to
///           the other holders pinned to its own epochs — epochs are the
///           replication token, so replica chains are identical by
///           construction, and a follower whose chain diverged (it missed
///           batches while down: its epoch or its unsealed-buffer length
///           differs from the owner's) answers 409 and is caught up with
///           a full-state sync.
///
/// Internal endpoints (replica-to-replica, same HTTP surface):
///   POST /v1/cluster/register   install a graph at the owner's epoch
///   POST /v1/cluster/edges      apply a replicated batch (+ pinned seal)
///   POST /v1/cluster/sync       full-state catch-up after a 409
///   GET  /v1/cluster/info       membership, placement, resident graphs
///   GET  /v1/cluster/route?graph=g   owner + holders for one name
///
/// Crash/rejoin: followers journal replicated batches and seals under the
/// owner's epochs (journal-before-ack, like the local path), so a killed
/// replica recovers from its *own* --data-dir at its recorded
/// (graph, epoch) — no peer resync — and the next replicated write either
/// chains cleanly or triggers the 409 → sync catch-up.
class ClusterNode {
 public:
  /// Registers cluster routes on `server` (construct the frontend with
  /// register_routes=false). All referenced objects must outlive the node.
  ClusterNode(const ClusterNodeOptions& options,
              service::GraphRegistry& registry,
              service::DecompositionService& service,
              server::DecompositionHttpFrontend& frontend,
              server::HttpServer& server);

  /// Post-bind endpoint fix-up for ephemeral ports: tells this node where
  /// a member actually listens. Ring placement depends only on member
  /// *ids*, so updating an endpoint never moves ownership.
  void SetMemberEndpoint(const std::string& id, const std::string& host,
                         uint16_t port);

  const std::string& self_id() const { return options_.self_id; }
  bool IsOwner(const std::string& graph) const;
  /// Holder ids for `graph`, owner first.
  std::vector<std::string> HoldersOf(const std::string& graph) const;

  struct Stats {
    uint64_t local_reads = 0;        ///< decomposes served from this replica
    uint64_t proxied = 0;            ///< requests answered via a peer
    uint64_t redirected = 0;         ///< 307s answered (proxy=false)
    uint64_t stale_rejects = 0;      ///< 412s (behind X-Cluster-Min-Epoch)
    uint64_t replicated_out = 0;     ///< batches/registrations fanned out
    uint64_t replication_failures = 0;
    uint64_t chain_syncs = 0;        ///< full-state syncs sent after a 409
    uint64_t replicated_applies = 0; ///< internal applies served
  };
  Stats stats() const;

 private:
  server::HttpResponse HandleDecompose(const server::HttpRequest& request);
  server::HttpResponse HandleRegister(const server::HttpRequest& request);
  server::HttpResponse HandleEdges(const server::HttpRequest& request);
  server::HttpResponse HandleClusterRegister(
      const server::HttpRequest& request);
  server::HttpResponse HandleClusterEdges(const server::HttpRequest& request);
  server::HttpResponse HandleClusterSync(const server::HttpRequest& request);
  server::HttpResponse HandleInfo(const server::HttpRequest& request);
  server::HttpResponse HandleRoute(const server::HttpRequest& request);

  /// Proxies `request` to `member` verbatim (plus propagated headers) or
  /// answers 307, per options_.proxy.
  server::HttpResponse ForwardToMember(const std::string& member_id,
                                       const server::HttpRequest& request);

  /// Owner-side register fan-out: ships (name, epoch, shape, edges) to
  /// every other holder.
  void ReplicateRegister(const std::string& name);

  /// Owner-side batch fan-out of a pre-built /v1/cluster/edges body; a
  /// 409 (diverged follower) triggers a full-state sync to that follower.
  void ReplicateEdges(const std::string& name, const std::string& edges_json);

  bool SyncPeer(const ClusterMember& member, const std::string& name);

  ClusterMember MemberById(const std::string& id) const;

  const ClusterNodeOptions options_;
  service::GraphRegistry* registry_;
  service::DecompositionService* service_;
  server::DecompositionHttpFrontend* frontend_;
  HashRing ring_;
  HttpClient client_;

  mutable std::mutex members_mu_;  ///< guards endpoints of members_
  std::map<std::string, ClusterMember> members_;

  /// Serializes the owner-side write path (local apply + fan-out), so
  /// followers see batches in the owner's journal order.
  std::mutex write_mu_;

  std::atomic<uint64_t> local_reads_{0};
  std::atomic<uint64_t> proxied_{0};
  std::atomic<uint64_t> redirected_{0};
  std::atomic<uint64_t> stale_rejects_{0};
  std::atomic<uint64_t> replicated_out_{0};
  std::atomic<uint64_t> replication_failures_{0};
  std::atomic<uint64_t> chain_syncs_{0};
  std::atomic<uint64_t> replicated_applies_{0};
};

}  // namespace receipt::cluster

#endif  // RECEIPT_CLUSTER_NODE_H_
