// Placement & scheduling suite (`ctest -L placement`): the NUMA topology
// layer (sysfs cpulist parsing, discovery fallback, synthetic layouts,
// largest-remainder worker apportionment), the cost-model assigners (LPT
// against brute-force optimal, round-robin structure, migration pressure),
// and the contract the whole layer rests on — decomposition results are
// bit-identical whatever the node count, assignment rule, pinning flag,
// thread count, or steal interleaving.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "engine/cost_model.h"
#include "engine/support_index.h"
#include "engine/topology.h"
#include "graph/generators.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "tip/receipt.h"
#include "util/parallel.h"

namespace receipt {
namespace {

using engine::AssignLpt;
using engine::AssignRoundRobin;
using engine::NumaTopology;
using engine::ParseCpuList;
using engine::PlacementAssign;
using engine::PlacementPlan;

// ---------------------------------------------------------------------------
// ParseCpuList: the sysfs grammar, including the shapes real kernels emit.
// ---------------------------------------------------------------------------

TEST(ParseCpuListTest, AcceptsSysfsShapes) {
  std::vector<int> cpus;
  ASSERT_TRUE(ParseCpuList("0-3,8,10-11", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));

  ASSERT_TRUE(ParseCpuList("5", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{5}));

  // sysfs lines end in '\n'; leading/trailing whitespace is tolerated.
  ASSERT_TRUE(ParseCpuList("2-4\n", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{2, 3, 4}));
  ASSERT_TRUE(ParseCpuList(" 7 ", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{7}));

  // Out-of-order and duplicated entries come back sorted and deduplicated.
  ASSERT_TRUE(ParseCpuList("8,2-3,2", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{2, 3, 8}));
}

TEST(ParseCpuListTest, EmptyListIsAMemoryOnlyNode) {
  std::vector<int> cpus{99};
  ASSERT_TRUE(ParseCpuList("", &cpus));
  EXPECT_TRUE(cpus.empty());
  cpus = {99};
  ASSERT_TRUE(ParseCpuList(" \n", &cpus));
  EXPECT_TRUE(cpus.empty());
}

TEST(ParseCpuListTest, RejectsMalformedInput) {
  // Whitespace is only legal leading, trailing, or after a number — a
  // space before a digit (e.g. "1, 3") is not part of the sysfs grammar.
  for (const char* bad : {"a", "3-1", "1,", "1-", "-3", "1,,2", "1 2",
                          "1, 3", "1-2-3", "0x4"}) {
    std::vector<int> cpus{99};
    EXPECT_FALSE(ParseCpuList(bad, &cpus)) << "input: " << bad;
    EXPECT_TRUE(cpus.empty()) << "input: " << bad;  // left empty on failure
  }
}

// ---------------------------------------------------------------------------
// Topology discovery and synthetic layouts.
// ---------------------------------------------------------------------------

TEST(NumaTopologyTest, DiscoverAlwaysYieldsAUsableLayout) {
  // Whatever the machine — no sysfs node tree, masked affinity, one node,
  // many nodes — discovery must produce at least one node owning at least
  // one CPU, because placement consumers divide by these counts.
  const NumaTopology topology = NumaTopology::Discover();
  ASSERT_GE(topology.num_nodes(), 1);
  EXPECT_GE(topology.total_cpus(), 1);
  EXPECT_FALSE(topology.synthetic());
  for (const engine::NumaNode& node : topology.nodes()) {
    EXPECT_FALSE(node.cpus.empty());
  }
  // The process-wide instance is one coherent snapshot of the same machine.
  const NumaTopology& system = engine::SystemTopology();
  EXPECT_GE(system.num_nodes(), 1);
  EXPECT_GE(system.total_cpus(), 1);
}

TEST(NumaTopologyTest, SingleNodeFallbackShape) {
  const NumaTopology topology = NumaTopology::SingleNode(8);
  ASSERT_EQ(topology.num_nodes(), 1);
  EXPECT_EQ(topology.nodes()[0].id, 0);
  EXPECT_GE(topology.total_cpus(), 1);
}

TEST(NumaTopologyTest, SyntheticLayoutAndPinningNoOp) {
  const NumaTopology topology = NumaTopology::Synthetic(4, 2);
  ASSERT_EQ(topology.num_nodes(), 4);
  EXPECT_EQ(topology.total_cpus(), 8);
  EXPECT_TRUE(topology.synthetic());
  int next = 0;
  for (const engine::NumaNode& node : topology.nodes()) {
    for (const int cpu : node.cpus) EXPECT_EQ(cpu, next++);
  }
  // Pinning against fabricated CPU ids must refuse rather than pin the
  // caller to CPUs that may not exist.
  EXPECT_FALSE(engine::PinThreadToNode(topology, 0));
  EXPECT_FALSE(engine::PinThreadToNode(topology, -1));
  EXPECT_FALSE(engine::PinThreadToNode(topology, 4));
}

TEST(NumaTopologyTest, AssignWorkersLargestRemainder) {
  // Equal nodes, divisible workers: round-robin emission so consecutive
  // workers land on different nodes.
  EXPECT_EQ(NumaTopology::Synthetic(2, 4).AssignWorkers(4),
            (std::vector<int>{0, 1, 0, 1}));
  // Fewer workers than nodes: remainders tie, lower node index wins.
  EXPECT_EQ(NumaTopology::Synthetic(4, 2).AssignWorkers(2),
            (std::vector<int>{0, 1}));
  // 7 workers over 3 equal nodes: quotas {3,2,2} by largest remainder.
  EXPECT_EQ(NumaTopology::Synthetic(3, 2).AssignWorkers(7),
            (std::vector<int>{0, 1, 2, 0, 1, 2, 0}));
  // Oversubscription (more workers than CPUs) still covers every node.
  EXPECT_EQ(NumaTopology::Synthetic(2, 1).AssignWorkers(5),
            (std::vector<int>{0, 1, 0, 1, 0}));
  // Degenerate inputs.
  EXPECT_TRUE(NumaTopology::Synthetic(2, 2).AssignWorkers(0).empty());
  EXPECT_EQ(NumaTopology::Synthetic(3, 1).AssignWorkers(1),
            (std::vector<int>{0}));
}

TEST(NumaTopologyTest, ScopedAffinityRestoresTheMask) {
#if defined(__linux__)
  const auto current_mask = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  };
  const std::vector<int> before = current_mask();
  ASSERT_FALSE(before.empty());
  {
    engine::ScopedAffinity guard;
    // Narrow the mask to one CPU inside the scope (mirrors what a pinned
    // FD worker does)…
    ASSERT_TRUE(engine::PinThreadToCpus({before.front()}));
    EXPECT_EQ(current_mask(), std::vector<int>{before.front()});
  }
  // …and the guard's destructor must hand back the original mask.
  EXPECT_EQ(current_mask(), before);
#else
  engine::ScopedAffinity guard;  // construct/destruct smoke on non-Linux
#endif
}

// ---------------------------------------------------------------------------
// Cost-model assigners.
// ---------------------------------------------------------------------------

TEST(CostModelTest, RoundRobinDealsInCreationOrder) {
  const std::vector<Count> costs = {5, 1, 7, 3, 2};
  const PlacementPlan plan = AssignRoundRobin(costs, 2);
  EXPECT_EQ(plan.bin_of, (std::vector<uint32_t>{0, 1, 0, 1, 0}));
  ASSERT_EQ(plan.bin_items.size(), 2u);
  EXPECT_EQ(plan.bin_items[0], (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(plan.bin_items[1], (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(plan.bin_loads, (std::vector<Count>{14, 4}));
  EXPECT_EQ(plan.Makespan(), 14u);
  // total 18 over 2 bins → ⌈avg⌉ = 9; only bin 0 is overloaded, by 5.
  EXPECT_EQ(plan.MigrationPressure(), 5u);
}

TEST(CostModelTest, LptHandExampleAndDegenerateInputs) {
  const std::vector<Count> costs = {10, 2};
  const PlacementPlan plan = AssignLpt(costs, 3);
  EXPECT_EQ(plan.bin_of, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(plan.bin_loads, (std::vector<Count>{10, 2, 0}));
  EXPECT_EQ(plan.Makespan(), 10u);
  // total 12 over 3 bins → ⌈avg⌉ = 4; bin 0 overloaded by 6.
  EXPECT_EQ(plan.MigrationPressure(), 6u);

  const PlacementPlan empty = AssignLpt({}, 4);
  EXPECT_EQ(empty.Makespan(), 0u);
  EXPECT_EQ(empty.MigrationPressure(), 0u);
  ASSERT_EQ(empty.bin_loads.size(), 4u);

  // num_bins == 0 clamps to one bin rather than dividing by zero.
  const std::vector<Count> one = {3, 4};
  const PlacementPlan clamped = AssignLpt(one, 0);
  ASSERT_EQ(clamped.bin_loads.size(), 1u);
  EXPECT_EQ(clamped.bin_loads[0], 7u);
}

TEST(CostModelTest, LptBreaksTiesByLowerIdAndLowerBin) {
  const std::vector<Count> costs = {4, 4, 4, 4};
  const PlacementPlan plan = AssignLpt(costs, 2);
  // Equal costs sort by lower partition id; equal loads pick the lower
  // bin — so the plan is a pure function of the cost vector.
  EXPECT_EQ(plan.bin_items[0], (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(plan.bin_items[1], (std::vector<uint32_t>{1, 3}));
}

TEST(CostModelTest, LptWithinGrahamBoundOfBruteForce) {
  // Graham (1969): LPT makespan ≤ (4/3 − 1/(3m)) · OPT. Checked as
  // 3·m·LPT ≤ (4m − 1)·OPT in exact integers against exhaustive search.
  std::mt19937 rng(42);
  for (int instance = 0; instance < 30; ++instance) {
    const uint32_t m = 2 + rng() % 3;                    // 2..4 bins
    const size_t n = 3 + rng() % 6;                      // 3..8 items
    std::vector<Count> costs(n);
    for (Count& c : costs) c = rng() % 41;               // 0..40

    uint64_t opt = ~uint64_t{0};
    uint64_t combos = 1;
    for (size_t i = 0; i < n; ++i) combos *= m;
    for (uint64_t code = 0; code < combos; ++code) {
      std::vector<uint64_t> loads(m, 0);
      uint64_t rest = code;
      for (size_t i = 0; i < n; ++i) {
        loads[rest % m] += costs[i];
        rest /= m;
      }
      opt = std::min(opt, *std::max_element(loads.begin(), loads.end()));
    }

    const PlacementPlan plan = AssignLpt(costs, m);
    EXPECT_LE(uint64_t{3} * m * plan.Makespan(), (uint64_t{4} * m - 1) * opt)
        << "instance " << instance << ": LPT " << plan.Makespan()
        << " vs OPT " << opt << " on " << m << " bins";

    // Structural invariants: loads are the member-cost sums and bin_of
    // agrees with bin_items.
    Count total = 0;
    for (const Count c : costs) total += c;
    Count load_sum = 0;
    for (const Count load : plan.bin_loads) load_sum += load;
    EXPECT_EQ(load_sum, total);
    for (uint32_t b = 0; b < plan.bin_items.size(); ++b) {
      for (const uint32_t item : plan.bin_items[b]) {
        EXPECT_EQ(plan.bin_of[item], b);
      }
    }
  }
}

TEST(CostModelTest, PredictedRangeCostSumsStrictlyBelowBound) {
  // The LPT assigner's per-range input is SupportIndex::FindBound's
  // predicted cost. (support, cost) = (0, 5), (3, 7), (4, 2), (10, 1): the
  // entity at support 4 sits exactly on the bound need 6 opens, so it must
  // stay out of that range's predicted cost.
  const std::vector<Count> support = {0, 3, 4, 10};
  const std::vector<Count> cost = {5, 7, 2, 1};
  engine::SupportIndex index;
  index.Rebuild(
      support.size(), [](uint64_t) { return true; },
      [&](uint64_t e) { return support[e]; }, cost);
  const auto supports = [&](uint64_t e) { return support[e]; };

  PeelStats stats;
  const auto bound_and_cost = [&](Count need) {
    Count predicted = 0;
    const Count hi = index.FindBound(need, supports, &stats, &predicted);
    return std::pair<Count, Count>{hi, predicted};
  };
  EXPECT_EQ(bound_and_cost(1), (std::pair<Count, Count>{1, 5}));
  EXPECT_EQ(bound_and_cost(6), (std::pair<Count, Count>{4, 12}));  // 4 ≮ 4
  EXPECT_EQ(bound_and_cost(13), (std::pair<Count, Count>{5, 14}));
  EXPECT_EQ(bound_and_cost(15), (std::pair<Count, Count>{11, 15}));
  // Total mass short of the need: max support + 1 and the whole mass.
  EXPECT_EQ(bound_and_cost(100), (std::pair<Count, Count>{11, 15}));
}

// ---------------------------------------------------------------------------
// The determinism contract: placement moves work, never results.
// ---------------------------------------------------------------------------

TEST(PlacementDeterminismTest, ResultsInvariantAcrossPlacementKnobs) {
  const BipartiteGraph graph = ChungLuBipartite(400, 260, 3000, 0.8, 0.8, 777);

  TipOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.num_partitions = 8;
  reference_options.placement_nodes = 1;
  const TipResult reference = ReceiptDecompose(graph, reference_options);
  ASSERT_FALSE(reference.tip_numbers.empty());

  std::vector<int> threads = {1, 4};
  const int hw = MaxThreads();
  if (hw != 1 && hw != 4) threads.push_back(hw);

  for (const int nodes : {0, 1, 2, 4}) {
    for (const bool pin : {false, true}) {
      for (const int num_threads : threads) {
        for (const PlacementAssign assign :
             {PlacementAssign::kCostLpt, PlacementAssign::kRoundRobin}) {
          TipOptions options;
          options.num_threads = num_threads;
          options.num_partitions = 8;
          options.placement_nodes = nodes;
          options.pin_numa = pin;
          options.fd_assignment = assign;
          const TipResult result = ReceiptDecompose(graph, options);
          const std::string config =
              "nodes=" + std::to_string(nodes) +
              " pin=" + std::to_string(pin) +
              " threads=" + std::to_string(num_threads) + " assign=" +
              (assign == PlacementAssign::kCostLpt ? "lpt" : "rr");
          EXPECT_EQ(result.tip_numbers, reference.tip_numbers) << config;
          EXPECT_EQ(result.range_bounds, reference.range_bounds) << config;
          EXPECT_EQ(result.subset_of, reference.subset_of) << config;
          EXPECT_EQ(result.subsets, reference.subsets) << config;
        }
      }
    }
  }

}

TEST(PlacementDeterminismTest, ForcedNodesPopulatePlacementStats) {
  const BipartiteGraph graph = ChungLuBipartite(400, 260, 3000, 0.8, 0.8, 778);
  TipOptions options;
  options.num_threads = 4;
  options.num_partitions = 8;
  options.placement_nodes = 4;
  const TipResult result = ReceiptDecompose(graph, options);
  EXPECT_EQ(result.stats.placement_nodes, 4u);
  EXPECT_GT(result.stats.makespan_predicted, 0u);
  EXPECT_GT(result.stats.makespan_measured, 0u);
  // Measured makespan is the most loaded node's FD wedge work; it can never
  // exceed the whole FD phase's wedge count.
  EXPECT_LE(result.stats.makespan_measured, result.stats.wedges_fd);

  // The same run on one node concentrates all measured work there.
  options.placement_nodes = 1;
  const TipResult single = ReceiptDecompose(graph, options);
  EXPECT_EQ(single.stats.placement_nodes, 1u);
  EXPECT_GE(single.stats.makespan_measured, result.stats.makespan_measured);
  EXPECT_EQ(single.tip_numbers, result.tip_numbers);
}

// ---------------------------------------------------------------------------
// Service-level scheduling: sticky routing, per-node queues, steal counters.
// ---------------------------------------------------------------------------

namespace svc = receipt::service;

svc::Request MakeRequest(const std::string& graph, int partitions) {
  svc::Request request;
  request.graph = graph;
  request.kind = svc::RequestKind::kTipU;
  request.algorithm = svc::Algorithm::kReceipt;
  request.partitions = partitions;
  request.threads = 1;
  return request;
}

TEST(ServiceSchedulingTest, StickyRoutingFillsPerNodeQueues) {
  svc::GraphRegistry registry;
  registry.Register("g1", ChungLuBipartite(200, 150, 900, 0.6, 0.6, 11));
  registry.Register("g2", ChungLuBipartite(210, 140, 950, 0.6, 0.6, 12));
  registry.Register("g3", ChungLuBipartite(190, 160, 920, 0.6, 0.6, 13));
  registry.Register("g4", ChungLuBipartite(205, 155, 940, 0.6, 0.6, 14));

  svc::ServiceOptions options;
  options.num_workers = 0;  // deterministic: only RunQueuedInline executes
  options.placement_nodes = 3;
  svc::DecompositionService service(registry, options);

  // New graphs are dealt round-robin across nodes; a repeated graph sticks
  // to the node that already serves it.
  std::vector<std::shared_future<svc::Response>> futures;
  for (const char* name : {"g1", "g2", "g3", "g4"}) {
    auto future = service.TrySubmit(MakeRequest(name, 5));
    ASSERT_TRUE(future.has_value()) << name;
    futures.push_back(std::move(*future));
  }
  auto again = service.TrySubmit(MakeRequest("g2", 6));  // sticks to g2's node
  ASSERT_TRUE(again.has_value());
  futures.push_back(std::move(*again));

  svc::DecompositionService::SchedulerStats stats = service.scheduler_stats();
  EXPECT_EQ(stats.num_nodes, 3);
  EXPECT_FALSE(stats.pinned);  // virtual nodes never pin
  ASSERT_EQ(stats.node_queue_depths.size(), 3u);
  EXPECT_EQ(stats.node_queue_depths[0], 2u);  // g1, g4 (round-robin wrap)
  EXPECT_EQ(stats.node_queue_depths[1], 2u);  // g2 twice (sticky)
  EXPECT_EQ(stats.node_queue_depths[2], 1u);  // g3

  // Inline drain pops home-first from node 0, then steals around the ring.
  // Node 0's g1 and g4 are distinct graphs (distinct epochs), so they pop
  // one at a time: two local pops. Node 1 holds the same graph twice —
  // same epoch, so the steal batches both in one pop — and node 2's g3 is
  // the final steal. All deterministic with no background workers.
  EXPECT_EQ(service.RunQueuedInline(), 5u);
  stats = service.scheduler_stats();
  EXPECT_EQ(stats.local_pops, 2u);
  EXPECT_EQ(stats.remote_steals, 2u);
  for (const size_t depth : stats.node_queue_depths) EXPECT_EQ(depth, 0u);

  for (const auto& future : futures) {
    EXPECT_EQ(future.get().status, svc::Status::kOk);
  }
}

TEST(ServiceSchedulingTest, ResultsIdenticalAcrossNodeCountsAndWorkers) {
  const BipartiteGraph graph =
      ChungLuBipartite(220, 160, 1100, 0.7, 0.7, 21);

  svc::GraphRegistry registry_a;
  registry_a.Register("g", graph);
  svc::ServiceOptions options_a;
  options_a.num_workers = 0;
  options_a.placement_nodes = 1;
  svc::DecompositionService service_a(registry_a, options_a);

  svc::GraphRegistry registry_b;
  registry_b.Register("g", graph);
  svc::ServiceOptions options_b;
  options_b.num_workers = 2;
  options_b.placement_nodes = 3;
  svc::DecompositionService service_b(registry_b, options_b);

  const svc::Response a = service_a.Execute(MakeRequest("g", 6));
  const svc::Response b = service_b.Execute(MakeRequest("g", 6));
  ASSERT_EQ(a.status, svc::Status::kOk);
  ASSERT_EQ(b.status, svc::Status::kOk);
  ASSERT_NE(a.payload, nullptr);
  ASSERT_NE(b.payload, nullptr);
  EXPECT_EQ(a.payload->numbers, b.payload->numbers);
}

TEST(ServiceSchedulingTest, WorkersSpreadAcrossForcedNodes) {
  svc::GraphRegistry registry;
  registry.Register("g", ChungLuBipartite(200, 150, 900, 0.6, 0.6, 31));

  svc::ServiceOptions options;
  options.num_workers = 3;
  options.placement_nodes = 2;
  svc::DecompositionService service(registry, options);

  const svc::DecompositionService::SchedulerStats stats =
      service.scheduler_stats();
  EXPECT_EQ(stats.num_nodes, 2);
  EXPECT_FALSE(stats.pinned);  // forced virtual nodes never pin
  EXPECT_EQ(stats.worker_nodes, (std::vector<int>{0, 1, 0}));

  EXPECT_EQ(service.Execute(MakeRequest("g", 5)).status, svc::Status::kOk);
  const svc::DecompositionService::SchedulerStats after =
      service.scheduler_stats();
  EXPECT_GE(after.local_pops + after.remote_steals, 1u);
}

}  // namespace
}  // namespace receipt
