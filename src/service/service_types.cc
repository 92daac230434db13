#include "service/service_types.h"

#include <algorithm>
#include <cctype>
#include <type_traits>

#include "util/json.h"

namespace receipt::service {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

}  // namespace

bool RequestKindFromName(std::string_view name, RequestKind* kind) {
  for (const RequestKind candidate :
       {RequestKind::kTipU, RequestKind::kTipV, RequestKind::kWing}) {
    if (EqualsIgnoreCase(name, RequestKindName(candidate))) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

bool AlgorithmFromName(std::string_view name, Algorithm* algorithm) {
  for (const Algorithm candidate :
       {Algorithm::kBup, Algorithm::kParb, Algorithm::kReceipt,
        Algorithm::kWingBup, Algorithm::kReceiptWing}) {
    if (EqualsIgnoreCase(name, AlgorithmName(candidate))) {
      *algorithm = candidate;
      return true;
    }
  }
  return false;
}

bool RequestFromJson(const util::JsonValue& json, Request* request,
                     std::string* error) {
  if (!json.IsObject()) {
    *error = "request body must be a JSON object";
    return false;
  }
  Request parsed;
  if (!json.GetString("graph", &parsed.graph) || parsed.graph.empty()) {
    *error = "missing required string field 'graph'";
    return false;
  }
  if (const util::JsonValue* kind = json.Find("kind")) {
    if (!kind->IsString() ||
        !RequestKindFromName(kind->AsString(), &parsed.kind)) {
      *error = "'kind' must be one of tip-U, tip-V, wing";
      return false;
    }
  }
  if (const util::JsonValue* algo = json.Find("algo")) {
    if (!algo->IsString() ||
        !AlgorithmFromName(algo->AsString(), &parsed.algorithm)) {
      *error = "'algo' must be one of BUP, ParB, RECEIPT, WING-BUP, RECEIPT-W";
      return false;
    }
  }
  int64_t value = 0;
  if (json.Find("partitions") != nullptr) {
    if (!json.GetInt("partitions", &value) || value <= 0 || value > 1 << 20) {
      *error = "'partitions' must be a positive integer";
      return false;
    }
    parsed.partitions = static_cast<int>(value);
  }
  if (json.Find("threads") != nullptr) {
    if (!json.GetInt("threads", &value) || value <= 0 || value > 1 << 12) {
      *error = "'threads' must be a positive integer";
      return false;
    }
    parsed.threads = static_cast<int>(value);
  }
  *request = std::move(parsed);
  return true;
}

bool EdgeUpdatesFromJson(const util::JsonValue& json, std::string_view field,
                         std::vector<EdgeUpdate>* updates,
                         std::string* error) {
  const std::string name(field);
  const util::JsonValue* items = json.Find(field);
  if (items == nullptr || !items->IsArray()) {
    *error = "missing required array field '" + name + "'";
    return false;
  }
  updates->clear();
  updates->reserve(items->Items().size());
  for (const util::JsonValue& item : items->Items()) {
    if (!item.IsObject()) {
      *error = "'" + name + "' entries must be objects";
      return false;
    }
    EdgeUpdate update;
    if (const util::JsonValue* op = item.Find("op")) {
      const std::string_view text =
          op->IsString() ? std::string_view(op->AsString()) : "";
      if (text == "insert" || text == "+") {
        update.insert = true;
      } else if (text == "delete" || text == "-") {
        update.insert = false;
      } else {
        *error = "'op' must be 'insert' or 'delete'";
        return false;
      }
    }
    int64_t u = -1;
    int64_t v = -1;
    if (!item.GetInt("u", &u) || !item.GetInt("v", &v) || u < 0 || v < 0 ||
        u > UINT32_MAX || v > UINT32_MAX) {
      *error = "'" + name + "' entries need side-local 'u' and 'v' ids";
      return false;
    }
    update.u = static_cast<VertexId>(u);
    update.v = static_cast<VertexId>(v);
    updates->push_back(update);
  }
  return true;
}

void WriteEdgeUpdatesJson(std::span<const EdgeUpdate> updates,
                          util::JsonWriter* writer) {
  writer->BeginArray();
  for (const EdgeUpdate& update : updates) {
    writer->BeginObject()
        .Key("op").String(update.insert ? "+" : "-")
        .Key("u").Uint(update.u)
        .Key("v").Uint(update.v)
        .EndObject();
  }
  writer->EndArray();
}

void WritePeelStatsJson(const PeelStats& stats, util::JsonWriter* writer) {
  writer->BeginObject();
  ForEachPeelStatsField([&](const char* name, auto member, StatFold) {
    writer->Key(name);
    if constexpr (std::is_same_v<decltype(stats.*member), const double&>) {
      writer->Double(stats.*member);
    } else {
      writer->Uint(stats.*member);
    }
  });
  writer->EndObject();
}

void WriteResponseJson(const Request& request, const Response& response,
                       util::JsonWriter* writer) {
  writer->BeginObject()
      .Key("status").String(StatusName(response.status))
      .Key("graph").String(request.graph)
      .Key("kind").String(RequestKindName(request.kind))
      .Key("algo").String(AlgorithmName(request.algorithm))
      .Key("partitions").Int(request.partitions)
      .Key("threads").Int(request.threads)
      .Key("graph_epoch").Uint(response.graph_epoch)
      .Key("cache_hit").Bool(response.cache_hit)
      .Key("coalesced").Bool(response.coalesced);
  if (request.trace.trace_id != 0) {
    writer->Key("trace_id").String(obs::FormatTraceId(request.trace.trace_id));
  }
  if (!response.error.empty()) writer->Key("error").String(response.error);
  if (response.status == Status::kOk && response.payload != nullptr) {
    const Payload& payload = *response.payload;
    Count max_number = 0;
    for (const Count n : payload.numbers) max_number = std::max(max_number, n);
    writer->Key("max_number").Uint(max_number);
    writer->Key("numbers").BeginArray();
    for (const Count n : payload.numbers) writer->Uint(n);
    writer->EndArray();
    writer->Key("stats");
    WritePeelStatsJson(payload.stats, writer);
  }
  writer->EndObject();
}

}  // namespace receipt::service
