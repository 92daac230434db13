#ifndef RECEIPT_UTIL_JSON_H_
#define RECEIPT_UTIL_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace receipt::util {

/// Appends `text` to *out as a JSON string literal (surrounding quotes
/// included, control characters and quote/backslash escaped).
void AppendJsonEscaped(std::string* out, std::string_view text);

/// Streaming JSON writer over a growing string: comma placement and
/// key/value alternation are tracked by a small nesting stack, so callers
/// only state structure (Begin/End) and content (Key/scalars). Emits
/// compact single-line JSON. Shared by the HTTP front-end's response
/// bodies and bench_common's BENCH_*.json trajectory files — one escaping
/// and number-formatting implementation for every byte of JSON the repo
/// produces.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject().Key("status").String("ok").Key("n").Uint(3).EndObject();
///   send(w.str());
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Int(int64_t value);
  /// Non-finite doubles have no JSON representation; they are written as
  /// null rather than producing an unparseable document.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();  ///< comma bookkeeping shared by every value emitter

  std::string out_;
  /// One entry per open container: true while the next emission at this
  /// level needs a separating comma.
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

/// A parsed JSON document: immutable tree of tagged values. Small,
/// dependency-free recursive-descent parser sized for the HTTP front-end's
/// request bodies (objects a few levels deep, numbers, strings) — not a
/// general high-throughput JSON library. Integers that fit int64/uint64
/// round-trip exactly (IsInt()); every number is also available as double.
class JsonValue {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kObject, kArray };

  /// Parses one JSON document (with nothing but whitespace after it).
  /// Returns nullopt and sets *error (when provided) on malformed input.
  static std::optional<JsonValue> Parse(std::string_view text,
                                        std::string* error = nullptr);

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  /// True for numbers written without fraction/exponent that fit int64
  /// (or uint64 — see AsUint).
  bool IsInt() const { return type_ == Type::kNumber && is_int_; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsObject() const { return type_ == Type::kObject; }
  bool IsArray() const { return type_ == Type::kArray; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return double_; }
  int64_t AsInt() const { return int_; }
  uint64_t AsUint() const { return uint_; }
  const std::string& AsString() const { return string_; }

  /// Array elements (empty unless IsArray).
  const std::vector<JsonValue>& Items() const { return items_; }

  /// Object member lookup; nullptr when absent or not an object. Duplicate
  /// keys resolve to the first occurrence.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors: true and *out set only when `key` is present
  /// with the matching type. GetInt additionally requires the value to be
  /// int64-representable (a member in (INT64_MAX, UINT64_MAX] fails
  /// instead of truncating — read it through Find + AsUint).
  bool GetString(std::string_view key, std::string* out) const;
  bool GetInt(std::string_view key, int64_t* out) const;
  bool GetBool(std::string_view key, bool* out) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  bool is_int_ = false;
  bool fits_int64_ = false;  ///< int_ is the exact value (not just uint_)
  double double_ = 0.0;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace receipt::util

#endif  // RECEIPT_UTIL_JSON_H_
