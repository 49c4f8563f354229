#ifndef MINIHIVE_COMMON_CRC32_H_
#define MINIHIVE_COMMON_CRC32_H_

#include <cstdint>
#include <string_view>

namespace minihive {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/HDFS checksum) over `data`.
/// `seed` chains incremental computations: Crc32(a + b) == Crc32(b, Crc32(a)).
///
/// Two arms compute the same value. On x86-64 CPUs with PCLMULQDQ, inputs
/// of 64 bytes or more fold 64 bytes per step by carry-less multiplication
/// (the CPU check runs once, at first use; `MINIHIVE_DISABLE_SIMD` compiles
/// the arm out); shorter inputs, tails and every other CPU take slice-by-8.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

/// The slice-by-8 arm alone: the identity reference for the folding arm.
uint32_t Crc32Scalar(std::string_view data, uint32_t seed = 0);

}  // namespace minihive

#endif  // MINIHIVE_COMMON_CRC32_H_
