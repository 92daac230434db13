#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <unordered_set>

namespace receipt {
namespace {

using Edge = BipartiteGraph::Edge;

/// Packs an edge into one 64-bit key for dedup sets.
uint64_t EdgeKey(VertexId u, VertexId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// Cumulative power-law weights w_i = (i+1)^-alpha for i in [0, n);
/// returns the cumulative sums so a vertex can be sampled by binary search.
std::vector<double> CumulativePowerLawWeights(VertexId n, double alpha) {
  std::vector<double> cum(n);
  double running = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    running += std::pow(static_cast<double>(i) + 1.0, -alpha);
    cum[i] = running;
  }
  return cum;
}

VertexId SampleFromCumulative(const std::vector<double>& cum,
                              std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(0.0, cum.back());
  const double x = dist(rng);
  const auto it = std::lower_bound(cum.begin(), cum.end(), x);
  return static_cast<VertexId>(it - cum.begin());
}

}  // namespace

BipartiteGraph RandomBipartite(VertexId num_u, VertexId num_v,
                               uint64_t num_edges, uint64_t seed) {
  const uint64_t max_edges =
      static_cast<uint64_t>(num_u) * static_cast<uint64_t>(num_v);
  if (num_edges > max_edges) num_edges = max_edges;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> du(0, num_u ? num_u - 1 : 0);
  std::uniform_int_distribution<VertexId> dv(0, num_v ? num_v - 1 : 0);
  std::unordered_set<uint64_t> seen;
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  // Dense targets (> half the grid) would make rejection sampling slow;
  // enumerate and shuffle instead.
  if (num_edges * 2 > max_edges) {
    std::vector<Edge> all;
    all.reserve(max_edges);
    for (VertexId u = 0; u < num_u; ++u) {
      for (VertexId v = 0; v < num_v; ++v) all.push_back(Edge{u, v});
    }
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(num_edges);
    return BipartiteGraph::FromEdges(num_u, num_v, std::move(all));
  }
  while (edges.size() < num_edges) {
    const VertexId u = du(rng);
    const VertexId v = dv(rng);
    if (seen.insert(EdgeKey(u, v)).second) edges.push_back(Edge{u, v});
  }
  return BipartiteGraph::FromEdges(num_u, num_v, std::move(edges));
}

BipartiteGraph ChungLuBipartite(VertexId num_u, VertexId num_v,
                                uint64_t num_edges, double alpha_u,
                                double alpha_v, uint64_t seed) {
  const uint64_t max_edges =
      static_cast<uint64_t>(num_u) * static_cast<uint64_t>(num_v);
  if (num_edges > max_edges) num_edges = max_edges;
  std::mt19937_64 rng(seed);
  const std::vector<double> cum_u = CumulativePowerLawWeights(num_u, alpha_u);
  const std::vector<double> cum_v = CumulativePowerLawWeights(num_v, alpha_v);
  std::unordered_set<uint64_t> seen;
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  // Heavy skew causes many duplicate proposals; bound total attempts so the
  // generator terminates even for infeasible parameter combinations.
  const uint64_t max_attempts = 200 * num_edges + 1000;
  uint64_t attempts = 0;
  while (edges.size() < num_edges && attempts < max_attempts) {
    ++attempts;
    const VertexId u = SampleFromCumulative(cum_u, rng);
    const VertexId v = SampleFromCumulative(cum_v, rng);
    if (seen.insert(EdgeKey(u, v)).second) edges.push_back(Edge{u, v});
  }
  return BipartiteGraph::FromEdges(num_u, num_v, std::move(edges));
}

BipartiteGraph AffiliationGraph(VertexId num_u, VertexId num_v,
                                const std::vector<CommunitySpec>& communities,
                                uint64_t background_edges, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::unordered_set<uint64_t> seen;
  std::vector<Edge> edges;

  VertexId next_u = 0;
  VertexId next_v = 0;
  for (const CommunitySpec& c : communities) {
    if (next_u + c.num_users > num_u || next_v + c.num_items > num_v) {
      std::fprintf(stderr,
                   "AffiliationGraph: communities exceed vertex budget\n");
      std::abort();
    }
    for (VertexId du = 0; du < c.num_users; ++du) {
      for (VertexId dv = 0; dv < c.num_items; ++dv) {
        if (coin(rng) <= c.density) {
          const VertexId u = next_u + du;
          const VertexId v = next_v + dv;
          if (seen.insert(EdgeKey(u, v)).second) edges.push_back(Edge{u, v});
        }
      }
    }
    next_u += c.num_users;
    next_v += c.num_items;
  }

  std::uniform_int_distribution<VertexId> du(0, num_u ? num_u - 1 : 0);
  std::uniform_int_distribution<VertexId> dv(0, num_v ? num_v - 1 : 0);
  uint64_t added = 0;
  uint64_t attempts = 0;
  const uint64_t max_attempts = 100 * background_edges + 1000;
  while (added < background_edges && attempts < max_attempts) {
    ++attempts;
    const VertexId u = du(rng);
    const VertexId v = dv(rng);
    if (seen.insert(EdgeKey(u, v)).second) {
      edges.push_back(Edge{u, v});
      ++added;
    }
  }
  return BipartiteGraph::FromEdges(num_u, num_v, std::move(edges));
}

BipartiteGraph CompleteBipartite(VertexId a, VertexId b) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(a) * b);
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) edges.push_back(Edge{u, v});
  }
  return BipartiteGraph::FromEdges(a, b, std::move(edges));
}

BipartiteGraph Star(VertexId num_u) {
  std::vector<Edge> edges;
  edges.reserve(num_u);
  for (VertexId u = 0; u < num_u; ++u) edges.push_back(Edge{u, 0});
  return BipartiteGraph::FromEdges(num_u, 1, std::move(edges));
}

BipartiteGraph SmallExampleGraph() {
  // u0..u3 × v0..v3 complete; u4, u5 -> {v0, v1}; u6 -> {v0}; u7 -> {v4}.
  // Butterflies: u0..u3: 20 each; u4, u5: 5; u6, u7: 0.
  // Tip numbers:  u0..u3: 18;      u4, u5: 5; u6, u7: 0.
  std::vector<Edge> edges;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.push_back(Edge{u, v});
  }
  edges.push_back(Edge{4, 0});
  edges.push_back(Edge{4, 1});
  edges.push_back(Edge{5, 0});
  edges.push_back(Edge{5, 1});
  edges.push_back(Edge{6, 0});
  edges.push_back(Edge{7, 4});
  return BipartiteGraph::FromEdges(8, 7, std::move(edges));
}

namespace {

struct AnalogueSpec {
  const char* name;
  const char* description;
  VertexId num_u;
  VertexId num_v;
  uint64_t num_edges;
  double alpha_u;
  double alpha_v;
  uint64_t seed;
};

// Scaled analogues of Table 2. The V-side skew (alpha_v) controls the U-side
// peeling workload (∧_U = Σ_v d_v(d_v−1)) and therefore the ratio
// r = ∧peel/∧cnt that decides who benefits from HUC; see README.md,
// "Dataset analogues".
constexpr AnalogueSpec kAnalogues[] = {
    {"it", "Italian Wikipedia pages-editors analogue: small V side with "
           "heavy hubs; U-side peeling ≫ V-side peeling",
     8000, 800, 40000, 0.40, 0.85, 101},
    {"de", "Delicious users-tags analogue: both sides skewed, butterfly "
           "dense", 12000, 2500, 60000, 0.72, 0.72, 102},
    {"or", "Orkut users-groups analogue: high average degree, moderate "
           "skew, largest butterfly count", 9000, 3000, 150000, 0.35, 0.35,
     103},
    {"lj", "LiveJournal users-groups analogue: strong U/V wedge asymmetry",
     10000, 24000, 60000, 0.30, 0.80, 104},
    {"en", "English Wikipedia pages-editors analogue: large U side, "
           "V hubs dominate", 20000, 3500, 70000, 0.30, 0.78, 105},
    {"tr", "Trackers domains-trackers analogue: extreme V-side hubs, "
           "r = ∧peel/∧cnt in the thousands (HUC stress)", 30000, 12000,
     80000, 0.50, 1.02, 106},
};

const AnalogueSpec* FindAnalogue(const std::string& name) {
  for (const AnalogueSpec& spec : kAnalogues) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

BipartiteGraph MakePaperAnalogue(const std::string& name) {
  const AnalogueSpec* spec = FindAnalogue(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "MakePaperAnalogue: unknown dataset '%s'\n",
                 name.c_str());
    std::abort();
  }
  return ChungLuBipartite(spec->num_u, spec->num_v, spec->num_edges,
                          spec->alpha_u, spec->alpha_v, spec->seed);
}

const std::vector<std::string>& PaperAnalogueNames() {
  static const std::vector<std::string>& names =
      *new std::vector<std::string>{"it", "de", "or", "lj", "en", "tr"};
  return names;
}

std::string PaperAnalogueDescription(const std::string& name) {
  const AnalogueSpec* spec = FindAnalogue(name);
  return spec ? spec->description : "unknown dataset";
}

}  // namespace receipt
