#ifndef MINIHIVE_COMMON_BYTES_H_
#define MINIHIVE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace minihive {

/// Appends an unsigned LEB128 varint.
void PutVarint64(std::string* dst, uint64_t value);

/// Appends a zigzag-encoded signed varint.
void PutVarintSigned64(std::string* dst, int64_t value);

/// Appends a fixed little-endian 8-byte value.
void PutFixed64(std::string* dst, uint64_t value);

/// Appends a fixed little-endian 4-byte value.
void PutFixed32(std::string* dst, uint32_t value);

/// Appends a length-prefixed (varint) string.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Appends the raw bits of a double (little-endian).
void PutDoubleBits(std::string* dst, double value);

/// Cursor for decoding the encodings above. All Get* methods return an error
/// Status on truncation/corruption rather than reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// Repositions the cursor (for following position pointers in indexes).
  Status Seek(size_t pos) {
    if (pos > data_.size()) {
      return Status::Corruption("seek past end of buffer");
    }
    pos_ = pos;
    return Status::OK();
  }

  /// Inlined: a varint that ends within the next ten bytes is decoded
  /// without per-byte bounds checks. Near the end of the buffer, and for a
  /// varint that runs past ten bytes, the checked loop decides.
  Status GetVarint64(uint64_t* value) {
    if (data_.size() - pos_ >= kMaxVarint64Bytes) {
      const auto* p = reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
      uint64_t result = 0;
      for (size_t i = 0; i < kMaxVarint64Bytes; ++i) {
        result |= static_cast<uint64_t>(p[i] & 0x7f) << (7 * i);
        if (p[i] < 0x80) {
          pos_ += i + 1;
          *value = result;
          return Status::OK();
        }
      }
    }
    return GetVarint64Slow(value);
  }
  /// Reads a varint element count and rejects one larger than the bytes
  /// left: every element takes at least one byte, so callers may size a
  /// buffer from the count before parsing its elements.
  Status GetCount(uint64_t* count);
  Status GetVarintSigned64(int64_t* value) {
    uint64_t zigzag;
    MINIHIVE_RETURN_IF_ERROR(GetVarint64(&zigzag));
    *value = static_cast<int64_t>(zigzag >> 1) ^
             -static_cast<int64_t>(zigzag & 1);
    return Status::OK();
  }
  Status GetFixed64(uint64_t* value);
  Status GetFixed32(uint32_t* value);
  Status GetLengthPrefixed(std::string_view* value);
  Status GetDoubleBits(double* value);
  Status GetBytes(size_t n, std::string_view* value);
  Status GetByte(uint8_t* value) {
    if (pos_ == data_.size()) return Status::Corruption("truncated byte");
    *value = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

 private:
  static constexpr size_t kMaxVarint64Bytes = 10;

  Status GetVarint64Slow(uint64_t* value);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_BYTES_H_
