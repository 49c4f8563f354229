#include "codec/codec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace minihive::codec {

const char* CompressionKindName(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kNone:
      return "NONE";
    case CompressionKind::kFastLz:
      return "FASTLZ";
    case CompressionKind::kDeepLz:
      return "DEEPLZ";
  }
  return "UNKNOWN";
}

namespace {

// LZ77 with a byte-oriented token format:
//   token := varint(literal_len) literal_bytes varint(match_len)
//            [varint(distance) if match_len > 0]
// A token with literal_len == 0 and match_len == 0 terminates the stream.
// Minimum match length 4; matches found via a hash table over 4-byte seeds.
// `chain_depth` controls how many previous positions with the same hash are
// tried: 1 gives the fast greedy codec, larger values a deeper search.

constexpr size_t kMinMatch = 4;
constexpr size_t kHashBits = 16;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr uint64_t kMaxDistance = 1 << 20;  // 1 MB window.

inline uint32_t HashSeed(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void LzCompress(std::string_view input, int chain_depth, std::string* out) {
  const char* data = input.data();
  const size_t n = input.size();

  // head[h] = most recent position with hash h (+1; 0 = none).
  // prev[i % window] = previous position with the same hash as position i.
  std::vector<uint32_t> head(kHashSize, 0);
  std::vector<uint32_t> prev(chain_depth > 1 ? n : 0, 0);

  size_t pos = 0;
  size_t literal_start = 0;

  auto emit = [&](size_t match_len, size_t distance) {
    size_t literal_len = pos - literal_start;
    PutVarint64(out, literal_len);
    out->append(data + literal_start, literal_len);
    PutVarint64(out, match_len);
    if (match_len > 0) PutVarint64(out, distance);
  };

  while (pos + kMinMatch <= n) {
    uint32_t h = HashSeed(data + pos);
    uint32_t candidate = head[h];
    size_t best_len = 0;
    size_t best_dist = 0;
    int tries = chain_depth;
    while (candidate != 0 && tries-- > 0) {
      size_t cand_pos = candidate - 1;
      size_t distance = pos - cand_pos;
      if (distance > kMaxDistance) break;
      // Extend the match.
      size_t len = 0;
      size_t limit = n - pos;
      while (len < limit && data[cand_pos + len] == data[pos + len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_dist = distance;
      }
      if (chain_depth > 1 && cand_pos < prev.size()) {
        candidate = prev[cand_pos];
      } else {
        break;
      }
    }
    if (best_len >= kMinMatch) {
      emit(best_len, best_dist);
      // Insert hash entries for the matched region (sparsely for speed).
      size_t end = pos + best_len;
      size_t step = best_len > 64 ? 8 : 1;
      for (size_t i = pos; i + kMinMatch <= n && i < end; i += step) {
        uint32_t hh = HashSeed(data + i);
        if (chain_depth > 1) prev[i] = head[hh];
        head[hh] = static_cast<uint32_t>(i + 1);
      }
      pos = end;
      literal_start = pos;
    } else {
      if (chain_depth > 1) prev[pos] = head[h];
      head[h] = static_cast<uint32_t>(pos + 1);
      ++pos;
    }
  }
  pos = n;
  if (pos > literal_start) emit(0, 0);  // Flush trailing literals.
}

// Output slack past the unit's decoded size: lets a literal or match of up
// to 16 bytes be copied with two fixed 8-byte moves even when it ends the
// unit. The slack is trimmed before returning.
constexpr size_t kSlack = 16;

// Reads an unsigned LEB128 varint from [*p, end) with the semantics of
// ByteReader::GetVarint64: at most 10 bytes, bits past 64 dropped.
inline bool ReadVarint(const uint8_t** p, const uint8_t* end,
                       uint64_t* value, const char** error) {
  const uint8_t* q = *p;
  if (q < end && *q < 0x80) {  // One-byte fast path.
    *value = *q;
    *p = q + 1;
    return true;
  }
  uint64_t result = 0;
  for (int shift = 0; q < end; shift += 7) {
    uint8_t byte = *q++;
    if (shift >= 64) {
      *error = "varint64 too long";
      return false;
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      *p = q;
      return true;
    }
  }
  *error = "truncated varint64";
  return false;
}

// Copies 16 bytes as two 8-byte moves, the second loaded after the first is
// stored, so a source that starts 8 or more bytes before `dst` is copied
// forward correctly.
inline void Copy16(char* dst, const char* src) {
  uint64_t word;
  std::memcpy(&word, src, 8);
  std::memcpy(dst, &word, 8);
  std::memcpy(&word, src + 8, 8);
  std::memcpy(dst + 8, &word, 8);
}

// Copies an overlapping match (distance < len) forward by pattern doubling:
// the bytes from `dst - distance` repeat with period `distance`, so each
// step copies everything between the source and the write position, which
// never overlaps and doubles the copied span.
inline void CopyOverlapping(char* dst, size_t distance, size_t len) {
  const char* src = dst - distance;
  char* const stop = dst + len;
  while (static_cast<size_t>(stop - dst) > static_cast<size_t>(dst - src)) {
    size_t span = static_cast<size_t>(dst - src);
    std::memcpy(dst, src, span);
    dst += span;
  }
  std::memcpy(dst, src, static_cast<size_t>(stop - dst));
}

// Appends exactly `original_len` decoded bytes to *out, or leaves *out as
// it was and returns Corruption. Every literal and match is checked against
// the input and the remaining output space before anything is copied.
Status LzDecompress(std::string_view input, uint64_t original_len,
                    std::string* out) {
  const size_t base = out->size();
  if (original_len > out->max_size() - base - kSlack) {
    return Status::Corruption("LZ unit too large");
  }
  out->resize(base + original_len + kSlack);
  char* const begin = out->data() + base;
  char* const limit = begin + original_len;
  char* op = begin;
  const auto* ip = reinterpret_cast<const uint8_t*>(input.data());
  const uint8_t* const in_end = ip + input.size();
  const char* error = nullptr;
  while (ip < in_end) {
    uint64_t literal_len;
    if (!ReadVarint(&ip, in_end, &literal_len, &error)) break;
    if (literal_len > static_cast<uint64_t>(in_end - ip)) {
      error = "LZ literal past end of input";
      break;
    }
    if (literal_len > static_cast<uint64_t>(limit - op)) {
      error = "LZ output exceeds unit length";
      break;
    }
    const char* literals = reinterpret_cast<const char*>(ip);
    if (literal_len <= 16 && in_end - ip >= 16) {
      Copy16(op, literals);
    } else {
      std::memcpy(op, literals, literal_len);
    }
    op += literal_len;
    ip += literal_len;
    uint64_t match_len;
    if (!ReadVarint(&ip, in_end, &match_len, &error)) break;
    if (match_len == 0) continue;
    uint64_t distance;
    if (!ReadVarint(&ip, in_end, &distance, &error)) break;
    if (distance == 0 || distance > static_cast<uint64_t>(op - begin)) {
      error = "LZ match distance out of range";
      break;
    }
    if (match_len > static_cast<uint64_t>(limit - op)) {
      error = "LZ output exceeds unit length";
      break;
    }
    if (distance >= match_len) {
      if (match_len <= 16) {
        Copy16(op, op - distance);
      } else {
        std::memcpy(op, op - distance, match_len);
      }
    } else {
      CopyOverlapping(op, distance, match_len);
    }
    op += match_len;
  }
  if (error == nullptr && op != limit) {
    error = "unit decompressed to unexpected size";
  }
  if (error != nullptr) {
    out->resize(base);
    return Status::Corruption(error);
  }
  out->resize(base + original_len);
  return Status::OK();
}

class LzCodec : public Codec {
 public:
  LzCodec(const char* name, int chain_depth)
      : name_(name), chain_depth_(chain_depth) {}

  const char* name() const override { return name_; }

  Status Compress(std::string_view input, std::string* out) const override {
    LzCompress(input, chain_depth_, out);
    return Status::OK();
  }

  Status Decompress(std::string_view input, uint64_t original_len,
                    std::string* out) const override {
    return LzDecompress(input, original_len, out);
  }

 private:
  const char* name_;
  int chain_depth_;
};

}  // namespace

const Codec* GetCodec(CompressionKind kind) {
  static const LzCodec* fast = new LzCodec("FASTLZ", 1);
  static const LzCodec* deep = new LzCodec("DEEPLZ", 32);
  switch (kind) {
    case CompressionKind::kNone:
      return nullptr;
    case CompressionKind::kFastLz:
      return fast;
    case CompressionKind::kDeepLz:
      return deep;
  }
  return nullptr;
}

Status CompressToUnits(const Codec* codec, std::string_view data,
                       size_t unit_size, std::string* out) {
  if (unit_size == 0) return Status::InvalidArgument("unit_size must be > 0");
  size_t pos = 0;
  do {
    size_t n = std::min(unit_size, data.size() - pos);
    std::string_view unit = data.substr(pos, n);
    PutVarint64(out, n);
    if (codec == nullptr) {
      out->push_back(0);
      PutVarint64(out, n);
      out->append(unit.data(), unit.size());
    } else {
      std::string compressed;
      MINIHIVE_RETURN_IF_ERROR(codec->Compress(unit, &compressed));
      if (compressed.size() < n) {
        out->push_back(1);
        PutVarint64(out, compressed.size());
        out->append(compressed);
      } else {
        out->push_back(0);
        PutVarint64(out, n);
        out->append(unit.data(), unit.size());
      }
    }
    pos += n;
  } while (pos < data.size());
  return Status::OK();
}

Status DecompressUnits(const Codec* codec, std::string_view data,
                       std::string* out, uint64_t max_unit_len) {
  minihive::ByteReader reader(data);
  while (!reader.AtEnd()) {
    uint64_t original_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&original_len));
    if (original_len > max_unit_len) {
      return Status::Corruption("compression unit larger than its bound");
    }
    uint8_t flag;
    MINIHIVE_RETURN_IF_ERROR(reader.GetByte(&flag));
    uint64_t stored_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stored_len));
    std::string_view stored;
    MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(stored_len, &stored));
    if (flag == 0) {
      if (stored_len != original_len) {
        return Status::Corruption("stored unit length mismatch");
      }
      out->append(stored.data(), stored.size());
    } else {
      if (codec == nullptr) {
        return Status::Corruption("compressed unit but no codec configured");
      }
      MINIHIVE_RETURN_IF_ERROR(codec->Decompress(stored, original_len, out));
    }
  }
  return Status::OK();
}

}  // namespace minihive::codec
