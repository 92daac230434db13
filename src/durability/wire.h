#ifndef RECEIPT_DURABILITY_WIRE_H_
#define RECEIPT_DURABILITY_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace receipt::durability {

/// Little-endian append-only encoder for journal/snapshot payloads.
/// Deliberately dumb: fixed-width ints + length-prefixed strings, so the
/// on-disk format is describable in one sentence per record type.
struct ByteWriter {
  std::string out;

  void U8(uint8_t v) { out.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out.append(buf, 4);
  }

  void U64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.append(buf, 8);
  }

  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out.append(s);
  }
};

/// Matching decoder. Any short read flips `ok` and every later read
/// returns zero, so callers validate once at the end.
struct ByteReader {
  const char* data = nullptr;
  size_t size = 0;
  size_t pos = 0;
  bool ok = true;

  ByteReader(const void* d, size_t n)
      : data(static_cast<const char*>(d)), size(n) {}

  bool Need(size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data[pos++]);
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v;
    std::memcpy(&v, data + pos, 4);
    pos += 4;
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v;
    std::memcpy(&v, data + pos, 8);
    pos += 8;
    return v;
  }

  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(data + pos, n);
    pos += n;
    return s;
  }

  bool AtEnd() const { return ok && pos == size; }
};

}  // namespace receipt::durability

#endif  // RECEIPT_DURABILITY_WIRE_H_
