#ifndef RECEIPT_SERVICE_SERVICE_TYPES_H_
#define RECEIPT_SERVICE_SERVICE_TYPES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/stats.h"
#include "util/types.h"

namespace receipt::util {
class JsonWriter;
class JsonValue;
}  // namespace receipt::util

namespace receipt::service {

/// What a request decomposes: the U side, the V side (tip), or the edge set
/// (wing). Tip kinds pair with tip algorithms, kWing with wing algorithms.
enum class RequestKind : uint8_t {
  kTipU,
  kTipV,
  kWing,
};

/// Which decomposition driver executes the request. The three tip
/// algorithms produce identical tip numbers (Theorem 2) but different
/// wedge/time profiles; same for the two wing algorithms.
enum class Algorithm : uint8_t {
  kBup,          ///< sequential bottom-up tip peeling (Alg. 2)
  kParb,         ///< ParButterfly-style round peeling
  kReceipt,      ///< two-step RECEIPT (CD + FD)
  kWingBup,      ///< sequential bottom-up edge peeling (§7)
  kReceiptWing,  ///< two-step RECEIPT-W
};

inline bool IsWingAlgorithm(Algorithm a) {
  return a == Algorithm::kWingBup || a == Algorithm::kReceiptWing;
}

inline const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kTipU: return "tip-U";
    case RequestKind::kTipV: return "tip-V";
    case RequestKind::kWing: return "wing";
  }
  return "?";
}

inline const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBup: return "BUP";
    case Algorithm::kParb: return "ParB";
    case Algorithm::kReceipt: return "RECEIPT";
    case Algorithm::kWingBup: return "WING-BUP";
    case Algorithm::kReceiptWing: return "RECEIPT-W";
  }
  return "?";
}

/// One decomposition request against a registered graph.
struct Request {
  std::string graph;                        ///< registry name
  RequestKind kind = RequestKind::kTipU;
  Algorithm algorithm = Algorithm::kReceipt;
  /// RECEIPT / RECEIPT-W range count (P); ignored by the baselines.
  int partitions = 150;
  /// OpenMP threads the executing worker devotes to this request.
  int threads = 1;
  /// Span sink + per-request identity, minted (or accepted from
  /// X-Request-Id) at the front-end. Null by default; not part of the
  /// cache/coalesce key — coalesced twins share the first submitter's
  /// engine spans, and tracing never changes results.
  obs::TraceContext trace;
};

/// One edge mutation against a live graph, in side-local coordinates.
/// Inserting an existing edge or deleting an absent one is a no-op; within
/// a batch the last operation on a (u, v) pair wins.
struct EdgeUpdate {
  bool insert = true;
  VertexId u = 0;
  VertexId v = 0;
};

/// Terminal state of a request.
enum class Status : uint8_t {
  kOk,
  kNotFound,    ///< graph name not registered at submit time
  kBadRequest,  ///< kind/algorithm mismatch or invalid parameters
  kCancelled,   ///< cancelled mid-run or dropped by a non-draining shutdown
  kShutdown,    ///< submitted after the service stopped accepting work
};

inline const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not-found";
    case Status::kBadRequest: return "bad-request";
    case Status::kCancelled: return "cancelled";
    case Status::kShutdown: return "shutdown";
  }
  return "?";
}

/// The immutable product of one engine run: tip or wing numbers plus the
/// run's instrumentation. Shared (never copied) between the cache, every
/// coalesced waiter, and the response.
struct Payload {
  /// tip_numbers (side-local ids of the requested side) or wing_numbers
  /// (edge ids), depending on the request kind.
  std::vector<Count> numbers;
  PeelStats stats;

  /// Resident size, charged against the cache byte budget.
  size_t ApproxBytes() const {
    return sizeof(Payload) + numbers.capacity() * sizeof(Count);
  }
};

/// What a submitter gets back.
struct Response {
  Status status = Status::kOk;
  std::string error;                        ///< set when status != kOk
  std::shared_ptr<const Payload> payload;   ///< set when status == kOk
  bool cache_hit = false;   ///< served from ResultCache, engine not run
  bool coalesced = false;   ///< one engine run served >1 identical submits
  uint64_t graph_epoch = 0; ///< registry epoch the result was computed on
};

// ---------------------------------------------------------------------------
// Wire form: the request/response structs above serialize themselves so any
// front-end (the HTTP server, tools reading its output) speaks one schema.
// Names on the wire are the same strings RequestKindName / AlgorithmName
// print ("tip-U", "RECEIPT-W", …) and both lookups accept them
// case-insensitively.
// ---------------------------------------------------------------------------

/// Inverse of RequestKindName (case-insensitive). False on unknown names.
bool RequestKindFromName(std::string_view name, RequestKind* kind);

/// Inverse of AlgorithmName (case-insensitive). False on unknown names.
bool AlgorithmFromName(std::string_view name, Algorithm* algorithm);

/// Parses the wire form of a Request, e.g. the POST /v1/decompose body:
///   {"graph": "g1", "kind": "tip-U", "algo": "RECEIPT",
///    "partitions": 6, "threads": 2}
/// `graph` is required; `kind`/`algo` default as the struct does;
/// `partitions`/`threads` must be positive when present. Returns false and
/// sets *error on any violation, leaving *request unspecified.
bool RequestFromJson(const util::JsonValue& json, Request* request,
                     std::string* error);

/// Parses the wire form of an edge-update batch: the array under `field`
/// of `json`, each entry {"op": "insert"|"+"|"delete"|"-", "u": id,
/// "v": id} with `op` defaulting to insert and ids in [0, 2^32). The one
/// parser for client batches (POST /v1/graphs/{name}/edges) and the
/// cluster's replicated and synced batches. Returns false and sets *error
/// when the field is missing or not an array, or on any malformed entry.
bool EdgeUpdatesFromJson(const util::JsonValue& json, std::string_view field,
                         std::vector<EdgeUpdate>* updates, std::string* error);

/// Writes `updates` as the array EdgeUpdatesFromJson reads (op "+"/"-").
void WriteEdgeUpdatesJson(std::span<const EdgeUpdate> updates,
                          util::JsonWriter* writer);

/// Writes every PeelStats field as one JSON object, keyed by its name in
/// ForEachPeelStatsField (the list the bench JSON also follows).
void WritePeelStatsJson(const PeelStats& stats, util::JsonWriter* writer);

/// Writes the full wire form of a terminal Response: status/error, the
/// echoed request parameters, serving metadata (epoch, cache_hit,
/// coalesced) and — when status == kOk — max_number, the complete numbers
/// array and the PeelStats object.
void WriteResponseJson(const Request& request, const Response& response,
                       util::JsonWriter* writer);

}  // namespace receipt::service

#endif  // RECEIPT_SERVICE_SERVICE_TYPES_H_
