#ifndef FRAGDB_RECOVERY_CODEC_H_
#define FRAGDB_RECOVERY_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace fragdb {

/// Minimal little-endian byte codec for the durability formats (WAL
/// records, checkpoint images). Fixed-width encodings keep the formats
/// trivially seekable and make torn-write detection a pure length +
/// checksum question.

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

/// Cursor over encoded bytes. Reads fail soft: once `ok` drops to false
/// every further read returns zero, so callers can decode a whole struct
/// and check `ok` once at the end.
struct ByteReader {
  const std::string& bytes;
  size_t pos = 0;
  bool ok = true;

  explicit ByteReader(const std::string& b, size_t start = 0)
      : bytes(b), pos(start) {}

  bool Has(size_t n) const { return pos + n <= bytes.size(); }

  uint8_t U8() {
    if (!ok || !Has(1)) {
      ok = false;
      return 0;
    }
    return static_cast<uint8_t>(bytes[pos++]);
  }

  uint32_t U32() {
    if (!ok || !Has(4)) {
      ok = false;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  uint64_t U64() {
    if (!ok || !Has(8)) {
      ok = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  int64_t I64() { return static_cast<int64_t>(U64()); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
};

/// FNV-1a 32-bit: cheap, deterministic, and plenty for detecting torn or
/// corrupted records in the simulated byte store.
inline uint32_t Fnv1a(const char* data, size_t len) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

inline uint32_t Fnv1a(const std::string& s) { return Fnv1a(s.data(), s.size()); }

}  // namespace fragdb

#endif  // FRAGDB_RECOVERY_CODEC_H_
