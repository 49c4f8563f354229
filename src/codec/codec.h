#ifndef MINIHIVE_CODEC_CODEC_H_
#define MINIHIVE_CODEC_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace minihive::codec {

/// General-purpose compression choices. The paper's ORC supports ZLIB,
/// Snappy and LZO; offline we implement our own LZ77 family:
///   kFastLz — greedy single-probe matcher, Snappy-like speed/ratio point.
///   kDeepLz — same format, chained match search, ZLIB-like ratio point.
enum class CompressionKind {
  kNone,
  kFastLz,
  kDeepLz,
};

const char* CompressionKindName(CompressionKind kind);

/// A block codec. Thread-safe (stateless).
class Codec {
 public:
  virtual ~Codec() = default;
  virtual const char* name() const = 0;
  /// Appends the compressed form of `input` to *out.
  virtual Status Compress(std::string_view input, std::string* out) const = 0;
  /// Appends the decompressed form of `input` to *out. `original_len` is
  /// the exact decoded size, known from the unit header (or RCFile's
  /// `raw_len`); *out grows once by that much, so the caller must have
  /// bounded it. Returns Corruption, leaving *out as it was, on a truncated
  /// or over-long varint, a literal past the end of `input`, a match
  /// distance of 0 or past the start of this output, a literal or match
  /// that would pass `original_len` (rejected before it is copied), or a
  /// stream that ends short of `original_len`.
  virtual Status Decompress(std::string_view input, uint64_t original_len,
                            std::string* out) const = 0;
};

/// Returns the singleton codec for `kind`, or nullptr for kNone.
const Codec* GetCodec(CompressionKind kind);

/// Compression-unit framing (paper §4.3: a general-purpose codec compresses
/// a stream as multiple small units; default unit size 256 KB). Each unit is
/// stored as: varint original_len, flag byte (1=compressed, 0=stored),
/// varint stored_len, bytes. Incompressible units are stored raw.
Status CompressToUnits(const Codec* codec, std::string_view data,
                       size_t unit_size, std::string* out);

/// Default compression-unit size (256 KB, the paper's default).
inline constexpr size_t kDefaultCompressionUnitSize = 256 * 1024;

/// Inverse of CompressToUnits, appending to *out. `codec` may be nullptr
/// only if every unit is stored raw. Each unit is decoded straight into
/// space sized from its header's `original_len`. A header claiming more
/// than `max_unit_len` bytes is Corruption before anything is allocated;
/// readers pass the unit size the file records (ORC's postscript
/// `compression_unit`). A stored unit whose lengths disagree, and every
/// Codec::Decompress error, are Corruption too.
Status DecompressUnits(const Codec* codec, std::string_view data,
                       std::string* out,
                       uint64_t max_unit_len = kDefaultCompressionUnitSize);

}  // namespace minihive::codec

#endif  // MINIHIVE_CODEC_CODEC_H_
