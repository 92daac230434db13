#ifndef RECEIPT_GRAPH_GENERATORS_H_
#define RECEIPT_GRAPH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt {

/// Deterministic synthetic bipartite graph generators.
///
/// The paper evaluates on six KONECT datasets (Table 2) that are not
/// redistributable inside this repository. These generators produce
/// deterministic analogues whose *wedge-distribution shape* (degree skew,
/// U/V wedge asymmetry, butterfly density) matches each dataset's role in
/// the evaluation, at a scale that runs on one machine in seconds. See
/// README.md, "Dataset analogues", for the substitution argument.

/// Uniform random bipartite graph: `num_edges` distinct edges sampled
/// uniformly from the num_u × num_v grid. Deterministic for a fixed seed.
BipartiteGraph RandomBipartite(VertexId num_u, VertexId num_v,
                               uint64_t num_edges, uint64_t seed);

/// Chung–Lu style power-law bipartite graph. Vertex i on side U gets weight
/// (i+1)^-alpha_u (similarly for V); edges are sampled proportionally to the
/// product of endpoint weights until `num_edges` distinct edges exist.
/// Larger alpha = heavier skew = a few very high degree vertices = huge
/// maximum tip numbers, mimicking the Trackers/Delicious datasets.
BipartiteGraph ChungLuBipartite(VertexId num_u, VertexId num_v,
                                uint64_t num_edges, double alpha_u,
                                double alpha_v, uint64_t seed);

/// Parameters for one planted community of AffiliationGraph.
struct CommunitySpec {
  VertexId num_users = 0;    ///< U-side members.
  VertexId num_items = 0;    ///< V-side members.
  double density = 1.0;      ///< probability of each (user, item) edge.
};

/// Affiliation / planted-block model: disjoint U and V blocks with dense
/// bipartite cliques inside each community plus uniform background noise.
/// Models author–paper and user–group networks (§1) and gives ground-truth
/// dense blocks for the spam-detection and hierarchy examples: members of a
/// dense a×b block participate in ~C(a-1,1)·C(b,2)-scale butterflies, so tip
/// decomposition surfaces them at the top of the hierarchy.
BipartiteGraph AffiliationGraph(VertexId num_u, VertexId num_v,
                                const std::vector<CommunitySpec>& communities,
                                uint64_t background_edges, uint64_t seed);

/// Complete bipartite graph K_{a,b}: every u ∈ U is a neighbor of every
/// v ∈ V. Closed-form butterflies: each u participates in (a-1)·C(b,2).
BipartiteGraph CompleteBipartite(VertexId a, VertexId b);

/// A star: one V hub connected to all of U (zero butterflies).
BipartiteGraph Star(VertexId num_u);

/// A small 8×7 example graph in the spirit of Fig. 2 of the paper, with
/// hand-verifiable tip numbers: U = {u0..u7} where u0..u3 form a K_{4,4}
/// core (θ = 18), u4 and u5 attach to two core V vertices (θ = 5), and
/// u6, u7 are butterfly-free (θ = 0).
BipartiteGraph SmallExampleGraph();

/// A scaled-down analogue of one of the paper's six datasets (Table 2).
/// `name` ∈ {"it", "de", "or", "lj", "en", "tr"}; aborts on anything else.
/// Each analogue fixes (num_u, num_v, edges, skew) so that the qualitative
/// evaluation ratios (r = ∧peel/∧cnt, U/V wedge asymmetry) mirror the paper.
BipartiteGraph MakePaperAnalogue(const std::string& name);

/// All analogue names in Table 2 row order.
const std::vector<std::string>& PaperAnalogueNames();

/// Human-readable description of an analogue (what it substitutes).
std::string PaperAnalogueDescription(const std::string& name);

}  // namespace receipt

#endif  // RECEIPT_GRAPH_GENERATORS_H_
