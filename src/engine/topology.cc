#include "engine/topology.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace receipt::engine {
namespace {

/// Usable CPUs of the calling process (sched_getaffinity), ascending.
/// Falls back to {0, …, hardware_concurrency-1} where affinity queries are
/// unsupported.
std::vector<int> ProcessCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  if (cpus.empty()) {
    const int hw =
        std::max(1u, std::thread::hardware_concurrency());
    cpus.resize(static_cast<size_t>(hw));
    std::iota(cpus.begin(), cpus.end(), 0);
  }
  return cpus;
}

bool ReadFirstLine(const std::string& path, std::string* line) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  if (!std::getline(in, *line)) return false;
  return true;
}

}  // namespace

bool ParseCpuList(const std::string& text, std::vector<int>* cpus) {
  cpus->clear();
  size_t i = 0;
  const auto parse_int = [&](long* out) {
    if (i >= text.size() || !std::isdigit(static_cast<unsigned char>(text[i])))
      return false;
    long value = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
      value = value * 10 + (text[i] - '0');
      if (value > 1 << 20) return false;  // implausible CPU id
      ++i;
    }
    *out = value;
    return true;
  };
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (i == text.size()) return true;  // empty list (memory-only node)
  while (true) {
    long lo = 0;
    if (!parse_int(&lo)) {
      cpus->clear();
      return false;
    }
    long hi = lo;
    if (i < text.size() && text[i] == '-') {
      ++i;
      if (!parse_int(&hi) || hi < lo) {
        cpus->clear();
        return false;
      }
    }
    for (long c = lo; c <= hi; ++c) cpus->push_back(static_cast<int>(c));
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i == text.size()) break;
    if (text[i] != ',') {
      cpus->clear();
      return false;
    }
    ++i;
  }
  std::sort(cpus->begin(), cpus->end());
  cpus->erase(std::unique(cpus->begin(), cpus->end()), cpus->end());
  return true;
}

NumaTopology NumaTopology::Discover() {
  const std::vector<int> usable = ProcessCpus();
  NumaTopology topology;
#if defined(__linux__)
  // Probe node ids densely from 0; sysfs node directories are not required
  // to be contiguous, so tolerate a few holes before giving up.
  constexpr int kMaxHoles = 8;
  int holes = 0;
  for (int id = 0; holes <= kMaxHoles; ++id) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(id) + "/cpulist";
    std::string line;
    if (!ReadFirstLine(path, &line)) {
      ++holes;
      continue;
    }
    std::vector<int> cpus;
    if (!ParseCpuList(line, &cpus)) continue;
    std::vector<int> mine;
    std::set_intersection(cpus.begin(), cpus.end(), usable.begin(),
                          usable.end(), std::back_inserter(mine));
    if (mine.empty()) continue;  // memory-only node, or fully masked
    topology.nodes_.push_back({id, std::move(mine)});
  }
#endif
  if (topology.nodes_.empty()) {
    return SingleNode(static_cast<int>(usable.size()));
  }
  return topology;
}

NumaTopology NumaTopology::SingleNode(int num_cpus) {
  NumaTopology topology;
  NumaNode node;
  node.id = 0;
  node.cpus = ProcessCpus();
  if (static_cast<int>(node.cpus.size()) != num_cpus) {
    node.cpus.resize(static_cast<size_t>(std::max(1, num_cpus)));
    std::iota(node.cpus.begin(), node.cpus.end(), 0);
  }
  topology.nodes_.push_back(std::move(node));
  return topology;
}

NumaTopology NumaTopology::Synthetic(int num_nodes, int cpus_per_node) {
  NumaTopology topology;
  topology.synthetic_ = true;
  num_nodes = std::max(1, num_nodes);
  cpus_per_node = std::max(1, cpus_per_node);
  int next_cpu = 0;
  for (int id = 0; id < num_nodes; ++id) {
    NumaNode node;
    node.id = id;
    for (int c = 0; c < cpus_per_node; ++c) node.cpus.push_back(next_cpu++);
    topology.nodes_.push_back(std::move(node));
  }
  return topology;
}

int NumaTopology::total_cpus() const {
  int total = 0;
  for (const NumaNode& node : nodes_) {
    total += static_cast<int>(node.cpus.size());
  }
  return total;
}

std::vector<int> NumaTopology::AssignWorkers(int num_workers) const {
  std::vector<int> assignment;
  if (num_workers <= 0 || nodes_.empty()) return assignment;
  const int n = num_nodes();
  const int cpus = std::max(1, total_cpus());

  // Largest-remainder apportionment of workers to nodes by CPU share, then
  // emit workers round-robin across the nodes that still have quota — so
  // consecutive workers land on different nodes (the batching layer keeps
  // same-graph work together; spreading workers keeps nodes busy).
  std::vector<int> quota(static_cast<size_t>(n), 0);
  std::vector<std::pair<double, int>> remainder;
  int assigned = 0;
  for (int i = 0; i < n; ++i) {
    const double share =
        static_cast<double>(num_workers) *
        static_cast<double>(nodes_[static_cast<size_t>(i)].cpus.size()) /
        static_cast<double>(cpus);
    quota[static_cast<size_t>(i)] = static_cast<int>(share);
    assigned += quota[static_cast<size_t>(i)];
    remainder.emplace_back(share - static_cast<double>(
                                       quota[static_cast<size_t>(i)]),
                           i);
  }
  std::sort(remainder.begin(), remainder.end(), [](const auto& a,
                                                   const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // deterministic tie-break: lower node first
  });
  for (size_t i = 0; assigned < num_workers; i = (i + 1) % remainder.size()) {
    ++quota[static_cast<size_t>(remainder[i].second)];
    ++assigned;
  }

  std::vector<int> left = quota;
  while (static_cast<int>(assignment.size()) < num_workers) {
    for (int i = 0; i < n && static_cast<int>(assignment.size()) < num_workers;
         ++i) {
      if (left[static_cast<size_t>(i)] > 0) {
        --left[static_cast<size_t>(i)];
        assignment.push_back(i);
      }
    }
  }
  return assignment;
}

const NumaTopology& SystemTopology() {
  static const NumaTopology topology = NumaTopology::Discover();
  return topology;
}

bool PinThreadToCpus(const std::vector<int>& cpus) {
#if defined(__linux__)
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (const int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) {
      CPU_SET(c, &set);
      any = true;
    }
  }
  if (!any) return false;
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpus;
  return false;
#endif
}

bool PinThreadToNode(const NumaTopology& topology, int node) {
  if (topology.synthetic()) return false;
  if (node < 0 || node >= topology.num_nodes()) return false;
  return PinThreadToCpus(topology.nodes()[static_cast<size_t>(node)].cpus);
}

ScopedAffinity::ScopedAffinity() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) saved_cpus_.push_back(c);
    }
    valid_ = !saved_cpus_.empty();
  }
#endif
}

ScopedAffinity::~ScopedAffinity() {
  if (valid_) PinThreadToCpus(saved_cpus_);
}

}  // namespace receipt::engine
