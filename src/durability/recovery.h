#ifndef RECEIPT_DURABILITY_RECOVERY_H_
#define RECEIPT_DURABILITY_RECOVERY_H_

#include <memory>
#include <string>

#include "durability/manager.h"
#include "obs/observability.h"
#include "service/graph_registry.h"
#include "service/live_graph.h"

namespace receipt::durability {

/// What recovery found and replayed.
struct RecoveryReport {
  bool fresh_start = false;  ///< empty/missing data dir: nothing to recover
  uint64_t snapshots_loaded = 0;
  uint64_t graphs_recovered = 0;  ///< graphs registered after recovery
  uint64_t records_scanned = 0;
  uint64_t records_skipped = 0;  ///< below a snapshot's covered LSN
  uint64_t registrations_replayed = 0;
  uint64_t unregistrations_replayed = 0;
  uint64_t batches_replayed = 0;
  uint64_t updates_replayed = 0;
  uint64_t seals_replayed = 0;
  bool torn_tail = false;
  uint64_t torn_bytes = 0;
  double seconds = 0.0;
};

/// Recovers the registry + live-graph state from `options.data_dir`, then
/// opens (and returns) the durability manager for the recovered state —
/// the one startup entry point for `serve --data-dir`.
///
/// Loads the snapshot per graph, then replays the journal suffix (skipping
/// records each graph's snapshot already covers). Registrations go
/// straight to the registry; batches and seals replay through
/// LiveGraphManager::ApplyReplicated with the journal acting as the shard
/// owner, which asserts the epoch chain is contiguous. Durability is
/// attached only after replay, so replay journals and snapshots nothing.
/// Replayed seals run the real seal path, so the recovered process serves
/// bit-identical results to the never-crashed one.
///
/// Fails (returns nullptr + *error) on anything that would mean serving
/// wrong data: corrupt snapshots, CRC-bad journal records, version
/// mismatches, broken epoch chains. A torn final record — the append a
/// crash interrupted — is the one expected artifact: it is truncated away
/// and reported, never fatal. An empty or missing data dir is a fresh
/// start, not an error.
std::unique_ptr<DurabilityManager> OpenWithRecovery(
    const DurabilityOptions& options, service::GraphRegistry& registry,
    service::LiveGraphManager& live, obs::Observability& obs,
    RecoveryReport* report, std::string* error);

}  // namespace receipt::durability

#endif  // RECEIPT_DURABILITY_RECOVERY_H_
