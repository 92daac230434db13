#include "durability/manager.h"

#include <algorithm>
#include <limits>

#include "util/timer.h"

namespace receipt::durability {

std::unique_ptr<DurabilityManager> DurabilityManager::Open(
    const DurabilityOptions& options, obs::Observability& obs,
    std::string* error) {
  if (options.data_dir.empty()) {
    if (error != nullptr) *error = "durability: empty data_dir";
    return nullptr;
  }
  std::unique_ptr<DurabilityManager> manager(new DurabilityManager(options));
  if (!util::io::EnsureDir(manager->journal_dir(), error) ||
      !util::io::EnsureDir(manager->snapshot_dir(), error)) {
    return nullptr;
  }
  JournalOptions journal_options;
  journal_options.dir = manager->journal_dir();
  journal_options.fsync = options.fsync;
  journal_options.segment_bytes = options.segment_bytes;
  journal_options.batch_bytes = options.batch_bytes;
  manager->journal_ = Journal::Open(journal_options, error);
  if (manager->journal_ == nullptr) return nullptr;
  manager->append_latency_ = obs.metrics.GetHistogram(
      "receipt_journal_append_seconds", "Journal append latency");
  manager->snapshot_latency_ = obs.metrics.GetHistogram(
      "receipt_snapshot_write_seconds", "Snapshot write latency");
  return manager;
}

void DurabilityManager::SeedCoverage(
    const std::map<std::string, uint64_t>& needed_segment) {
  std::lock_guard<std::mutex> lock(mu_);
  needed_segment_ = needed_segment;
}

void DurabilityManager::NoteGraphActivityLocked(const std::string& graph) {
  // First journaled activity for a graph with no snapshot coverage yet:
  // it needs the active segment onward.
  needed_segment_.emplace(graph, journal_->CurrentLsn().segment);
}

bool DurabilityManager::AppendInstrumented(const JournalRecord& record,
                                           std::string* error) {
  WallTimer timer;
  const bool ok = journal_->Append(record, error);
  if (ok) append_latency_->ObserveSeconds(timer.Seconds());
  return ok;
}

bool DurabilityManager::LogRegister(const std::string& graph, uint64_t epoch,
                                    uint32_t num_u, uint32_t num_v,
                                    std::span<const BipartiteGraph::Edge> edges,
                                    std::string* error) {
  JournalRecord record;
  record.type = JournalRecord::Type::kRegister;
  record.graph = graph;
  record.epoch = epoch;
  record.num_u = num_u;
  record.num_v = num_v;
  record.edges.assign(edges.begin(), edges.end());
  {
    // A re-register supersedes all earlier records for the name, so the
    // registration record itself is the graph's new replay floor.
    std::lock_guard<std::mutex> lock(mu_);
    needed_segment_[graph] = journal_->CurrentLsn().segment;
  }
  return AppendInstrumented(record, error);
}

bool DurabilityManager::LogUnregister(const std::string& graph,
                                      std::string* error) {
  JournalRecord record;
  record.type = JournalRecord::Type::kUnregister;
  record.graph = graph;
  bool ok = AppendInstrumented(record, error);
  if (ok) {
    std::lock_guard<std::mutex> lock(mu_);
    needed_segment_.erase(graph);
  }
  return ok;
}

bool DurabilityManager::LogEdgeBatch(const std::string& graph, uint64_t epoch,
                                     std::span<const EdgeOp> updates,
                                     std::string* error) {
  JournalRecord record;
  record.type = JournalRecord::Type::kEdgeBatch;
  record.graph = graph;
  record.epoch = epoch;
  record.updates.assign(updates.begin(), updates.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    NoteGraphActivityLocked(graph);
  }
  return AppendInstrumented(record, error);
}

bool DurabilityManager::LogSeal(const std::string& graph, uint64_t old_epoch,
                                uint64_t new_epoch, std::string* error) {
  JournalRecord record;
  record.type = JournalRecord::Type::kSeal;
  record.graph = graph;
  record.epoch = old_epoch;
  record.new_epoch = new_epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    NoteGraphActivityLocked(graph);
  }
  return AppendInstrumented(record, error);
}

bool DurabilityManager::WriteSnapshot(SnapshotData* data, std::string* error) {
  WallTimer timer;
  JournalLsn lsn = journal_->CurrentLsn();
  data->covered_segment = lsn.segment;
  data->covered_offset = lsn.offset;
  if (!WriteSnapshotFile(snapshot_dir(), *data, error)) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_failures_ += 1;
    return false;
  }
  uint64_t floor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The snapshot covers everything below the current segment; this
    // graph only needs the active segment onward now.
    needed_segment_[data->graph] = lsn.segment;
    floor = lsn.segment;
    for (const auto& [name, seq] : needed_segment_) {
      floor = std::min(floor, seq);
    }
    snapshots_written_ += 1;
  }
  journal_->DropSegmentsBelow(floor);
  snapshot_latency_->ObserveSeconds(timer.Seconds());
  return true;
}

DurabilityStats DurabilityManager::stats() {
  DurabilityStats stats;
  stats.journal = journal_->stats();
  stats.fsync = options_.fsync;
  stats.snapshot_on_seal = options_.snapshot_on_seal;
  std::lock_guard<std::mutex> lock(mu_);
  stats.snapshots_written = snapshots_written_;
  stats.snapshot_failures = snapshot_failures_;
  return stats;
}

}  // namespace receipt::durability
