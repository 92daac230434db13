#ifndef RECEIPT_ENGINE_TOPOLOGY_H_
#define RECEIPT_ENGINE_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace receipt::engine {

/// One NUMA node as seen by this process: the kernel node id plus the CPUs
/// of that node the process is actually allowed to run on (the node's
/// cpulist intersected with sched_getaffinity at discovery time).
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

/// The machine layout the placement layer schedules against. Three sources:
///
///  * Discover() parses /sys/devices/system/node/node*/cpulist and keeps
///    the nodes that still own at least one usable CPU after intersecting
///    with the process affinity mask. Machines without that sysfs tree
///    (or fully masked nodes) degrade to a single node owning every usable
///    CPU — the graceful single-node fallback the tests pin.
///  * Synthetic(nodes, cpus_per_node) fabricates a layout for benches and
///    tests, so multi-node scheduling logic is exercisable on any machine.
///    Pinning against a synthetic topology is a no-op by construction.
///  * SingleNode(cpus) is the explicit fallback constructor.
///
/// Placement decisions derived from a topology are functions of node count
/// and CPU counts only — never of timing — so decomposition results stay
/// bit-identical whatever Discover() returns.
class NumaTopology {
 public:
  static NumaTopology Discover();
  static NumaTopology SingleNode(int num_cpus);
  static NumaTopology Synthetic(int num_nodes, int cpus_per_node);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<NumaNode>& nodes() const { return nodes_; }
  int total_cpus() const;
  /// True for Synthetic() layouts: scheduling applies, pinning does not.
  bool synthetic() const { return synthetic_; }

  /// Spreads `num_workers` workers across nodes proportional to each
  /// node's CPU count (largest-remainder rounding, every node covered
  /// while workers remain). Deterministic: depends only on the layout.
  /// Returns the node index (not kernel id) per worker.
  std::vector<int> AssignWorkers(int num_workers) const;

 private:
  std::vector<NumaNode> nodes_;
  bool synthetic_ = false;
};

/// The process-wide topology, discovered once on first use (affinity is
/// sampled at that moment). All placement consumers share this instance so
/// they agree on node indices.
const NumaTopology& SystemTopology();

/// Parses a sysfs cpulist ("0-3,8,10-11") into ascending CPU ids. Returns
/// false (leaving `cpus` empty) on malformed input — exposed for the
/// topology unit tests.
bool ParseCpuList(const std::string& text, std::vector<int>* cpus);

/// Pins the calling thread to `cpus`. Returns false (and changes nothing)
/// when the list is empty, pinning is unsupported, or the kernel rejects
/// the mask. OpenMP worker threads spawned by the pinned thread inherit
/// the mask (libgomp), which is how a pinned service worker keeps its
/// whole peeling team node-local.
bool PinThreadToCpus(const std::vector<int>& cpus);

/// Pins the calling thread to the CPUs of `topology.nodes()[node]`.
/// No-op (returns false) for synthetic topologies and out-of-range nodes.
bool PinThreadToNode(const NumaTopology& topology, int node);

/// Saves the calling thread's affinity mask on construction and restores
/// it on destruction — FD worker threads pin themselves for the duration
/// of one placement-scheduled region without leaking the mask into
/// subsequent parallel work on the same OpenMP pool thread.
class ScopedAffinity {
 public:
  ScopedAffinity();
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  std::vector<int> saved_cpus_;
  bool valid_ = false;
};

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_TOPOLOGY_H_
