#ifndef RECEIPT_UTIL_TYPES_H_
#define RECEIPT_UTIL_TYPES_H_

#include <cstdint>

namespace receipt {

/// Vertex identifier. The combined vertex space W = U ∪ V is addressed with a
/// single 32-bit id: U occupies [0, num_u) and V occupies [num_u, num_u+num_v).
using VertexId = uint32_t;

/// Edge-array offset. 64-bit so graphs with more than 4B directed edge slots
/// (each undirected edge is stored twice in the CSR) remain addressable.
using EdgeOffset = uint64_t;

/// Butterfly/support/tip-number count. Tip numbers in the paper reach 3×10^12
/// (Table 2), so counts must be 64-bit.
using Count = uint64_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Sentinel for "no count / unassigned tip number".
inline constexpr Count kInvalidCount = static_cast<Count>(-1);

/// Which side of the bipartition an algorithm peels (decomposes).
enum class Side {
  kU,  ///< peel the U vertex set (ids [0, num_u))
  kV,  ///< peel the V vertex set (ids [num_u, num_u + num_v))
};

/// Returns "U" or "V"; used when labelling datasets, e.g. "TrU" vs "TrV".
inline const char* SideName(Side side) { return side == Side::kU ? "U" : "V"; }

/// n choose 2 without overflow for the magnitudes we care about.
inline constexpr Count Choose2(Count n) { return n < 2 ? 0 : n * (n - 1) / 2; }

/// Frontier-density threshold of range peeling's active-set rebuild
/// (Julienne-style direction optimization): while the round's frontier
/// holds fewer than this fraction of the remaining alive entities, the next
/// active set is built by merging workspace frontiers; at or above it, the
/// engine falls back to a full parallel scan. Both directions build the
/// same set, so the threshold trades rebuild cost, never results.
inline constexpr double kFrontierDensity = 0.2;

}  // namespace receipt

#endif  // RECEIPT_UTIL_TYPES_H_
