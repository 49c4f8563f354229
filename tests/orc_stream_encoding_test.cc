#include "orc/stream_encoding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"

namespace minihive::orc {
namespace {

// ---------------------------------------------------------------- RLE byte

std::vector<uint8_t> RoundTripBytes(const std::vector<uint8_t>& values) {
  RunLengthByteEncoder encoder;
  for (uint8_t v : values) encoder.Add(v);
  std::string encoded;
  encoder.Finish(&encoded);
  RunLengthByteDecoder decoder(encoded);
  std::vector<uint8_t> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(decoder.Next(&out[i]).ok());
  }
  EXPECT_TRUE(decoder.AtEnd());
  return out;
}

TEST(RunLengthByteTest, Empty) {
  RunLengthByteEncoder encoder;
  std::string encoded;
  encoder.Finish(&encoded);
  EXPECT_TRUE(encoded.empty());
}

TEST(RunLengthByteTest, SingleValue) {
  std::vector<uint8_t> v = {42};
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, LongRunCompresses) {
  std::vector<uint8_t> v(10000, 7);
  RunLengthByteEncoder encoder;
  for (uint8_t b : v) encoder.Add(b);
  std::string encoded;
  encoder.Finish(&encoded);
  EXPECT_LT(encoded.size(), 200u);
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, LiteralsBeforeRunKeepOrder) {
  // Regression: literals pending when a run flushes must be emitted first.
  std::vector<uint8_t> v = {1, 2, 3, 9, 9, 9, 9, 9, 4, 5};
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, AlternatingValues) {
  std::vector<uint8_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 2);
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, RandomMix) {
  Random rng(123);
  std::vector<uint8_t> v;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) {
      uint8_t b = static_cast<uint8_t>(rng.Next());
      size_t run = rng.Uniform(300) + 1;
      for (size_t j = 0; j < run; ++j) v.push_back(b);
    } else {
      v.push_back(static_cast<uint8_t>(rng.Next()));
    }
  }
  EXPECT_EQ(RoundTripBytes(v), v);
}

// ---------------------------------------------------------------- Int RLE

std::vector<int64_t> RoundTripInts(const std::vector<int64_t>& values,
                                   size_t* encoded_size = nullptr) {
  IntRleEncoder encoder;
  for (int64_t v : values) encoder.Add(v);
  std::string encoded;
  encoder.Finish(&encoded);
  if (encoded_size != nullptr) *encoded_size = encoded.size();
  IntRleDecoder decoder(encoded);
  std::vector<int64_t> out(values.size());
  EXPECT_TRUE(decoder.NextBatch(out.data(), out.size()).ok());
  EXPECT_TRUE(decoder.AtEnd());
  return out;
}

TEST(IntRleTest, Empty) {
  std::vector<int64_t> v;
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, ConstantRun) {
  std::vector<int64_t> v(100000, -12345);
  size_t size;
  EXPECT_EQ(RoundTripInts(v, &size), v);
  EXPECT_LT(size, 5000u);
}

TEST(IntRleTest, DeltaRunAscending) {
  // Monotone sequences use the delta encoding (paper: run length + delta).
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 100000; ++i) v.push_back(i * 3);
  size_t size;
  EXPECT_EQ(RoundTripInts(v, &size), v);
  EXPECT_LT(size, 5000u);
}

TEST(IntRleTest, DeltaRunDescending) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 1000; ++i) v.push_back(1000000 - i * 7);
  size_t size;
  EXPECT_EQ(RoundTripInts(v, &size), v);
  EXPECT_LT(size, 100u);
}

TEST(IntRleTest, ExtremeValues) {
  std::vector<int64_t> v = {INT64_MIN, INT64_MAX, 0, -1, 1,
                            INT64_MIN, INT64_MAX};
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, LiteralsThenRunThenLiterals) {
  std::vector<int64_t> v = {9, 1, 7, 5, 5, 5, 5, 5, 2, 8, 11, 12, 13, 14, 3};
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, DeltaTooLargeForRunStaysLiteral) {
  std::vector<int64_t> v = {0, 1000, 2000, 3000, 4000};  // delta 1000 > 127
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, RandomMix) {
  Random rng(77);
  std::vector<int64_t> v;
  for (int round = 0; round < 2000; ++round) {
    switch (rng.Uniform(3)) {
      case 0: {  // run
        int64_t base = static_cast<int64_t>(rng.Next());
        size_t n = rng.Uniform(200) + 1;
        for (size_t i = 0; i < n; ++i) v.push_back(base);
        break;
      }
      case 1: {  // arithmetic sequence
        int64_t base = rng.Range(-1000000, 1000000);
        int64_t delta = rng.Range(-128, 127);
        size_t n = rng.Uniform(200) + 1;
        for (size_t i = 0; i < n; ++i) v.push_back(base + delta * i);
        break;
      }
      default:  // literals
        v.push_back(static_cast<int64_t>(rng.Next()));
    }
  }
  EXPECT_EQ(RoundTripInts(v), v);
}

// ---------------------------------------------------------------- Bit field

std::vector<bool> RoundTripBits(const std::vector<bool>& values) {
  BitFieldEncoder encoder;
  for (bool v : values) encoder.Add(v);
  std::string encoded;
  encoder.Finish(&encoded);
  BitFieldDecoder decoder(encoded);
  std::vector<bool> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    bool b = false;
    EXPECT_TRUE(decoder.Next(&b).ok());
    out[i] = b;
  }
  return out;
}

TEST(BitFieldTest, VariousLengths) {
  Random rng(9);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
    std::vector<bool> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = rng.Bernoulli(0.5);
    EXPECT_EQ(RoundTripBits(v), v) << "n=" << n;
  }
}

TEST(BitFieldTest, AllTrueCompressesViaByteRle) {
  std::vector<bool> v(80000, true);
  BitFieldEncoder encoder;
  for (bool b : v) encoder.Add(b);
  std::string encoded;
  encoder.Finish(&encoded);
  EXPECT_LT(encoded.size(), 200u);
  EXPECT_EQ(RoundTripBits(v), v);
}

TEST(BitFieldTest, ConcatenatedGroupsDecodeWithAlign) {
  // Two groups encoded independently and concatenated: a sequential decoder
  // must AlignToByte between them (full-scan mode in the ORC reader).
  std::vector<bool> g1 = {true, false, true};  // 3 bits -> padded byte
  std::vector<bool> g2 = {false, false, true, true, false};
  std::string encoded;
  {
    BitFieldEncoder enc;
    for (bool b : g1) enc.Add(b);
    enc.Finish(&encoded);
  }
  {
    BitFieldEncoder enc;
    for (bool b : g2) enc.Add(b);
    enc.Finish(&encoded);
  }
  BitFieldDecoder dec(encoded);
  for (bool expected : g1) {
    bool b;
    ASSERT_TRUE(dec.Next(&b).ok());
    EXPECT_EQ(b, expected);
  }
  dec.AlignToByte();
  for (bool expected : g2) {
    bool b;
    ASSERT_TRUE(dec.Next(&b).ok());
    EXPECT_EQ(b, expected);
  }
}

TEST(IntRleTest, ConcatenatedGroupsDecodeSequentially) {
  // Int RLE groups end on token boundaries, so concatenated groups decode
  // with a single decoder and no realignment.
  std::vector<int64_t> g1 = {1, 2, 3, 4, 5};
  std::vector<int64_t> g2 = {100, 100, 100, 7};
  std::string encoded;
  {
    IntRleEncoder enc;
    for (int64_t v : g1) enc.Add(v);
    enc.Finish(&encoded);
  }
  {
    IntRleEncoder enc;
    for (int64_t v : g2) enc.Add(v);
    enc.Finish(&encoded);
  }
  IntRleDecoder dec(encoded);
  std::vector<int64_t> out(g1.size() + g2.size());
  ASSERT_TRUE(dec.NextBatch(out.data(), out.size()).ok());
  std::vector<int64_t> expected = g1;
  expected.insert(expected.end(), g2.begin(), g2.end());
  EXPECT_EQ(out, expected);
}

// ------------------------------------------------ Bulk decode vs per value

/// A random integer sequence of constant runs, delta runs (some wrapping
/// past INT64_MAX / INT64_MIN) and literal groups of small and full-width
/// values.
std::vector<int64_t> RandomIntPattern(Random* rng, int segments) {
  std::vector<int64_t> v;
  for (int s = 0; s < segments; ++s) {
    const size_t n = rng->Uniform(300) + 1;
    switch (rng->Uniform(5)) {
      case 0: {  // Constant run.
        const int64_t base = rng->Range(-100, 100);
        v.insert(v.end(), n, base);
        break;
      }
      case 1: {  // Delta run.
        const int64_t base = rng->Range(-1000000, 1000000);
        const int64_t delta = rng->Range(-128, 127);
        for (size_t i = 0; i < n; ++i) v.push_back(base + delta * int64_t(i));
        break;
      }
      case 2: {  // Delta run that wraps at an INT64 extreme.
        const int64_t delta = rng->Range(1, 127);
        const bool up = rng->Bernoulli(0.5);
        uint64_t x = up ? static_cast<uint64_t>(INT64_MAX) - 3 * delta
                        : static_cast<uint64_t>(INT64_MIN) + 3 * delta;
        for (size_t i = 0; i < n; ++i) {
          v.push_back(static_cast<int64_t>(x));
          x = up ? x + delta : x - delta;
        }
        break;
      }
      case 3:  // Literals: one-byte varints.
        for (size_t i = 0; i < n; ++i) v.push_back(rng->Range(-64, 63));
        break;
      default:  // Literals: full-width varints.
        for (size_t i = 0; i < n; ++i) {
          v.push_back(static_cast<int64_t>(rng->Next()));
        }
    }
  }
  return v;
}

std::string EncodeInts(const std::vector<int64_t>& values) {
  IntRleEncoder encoder;
  for (int64_t v : values) encoder.Add(v);
  std::string encoded;
  encoder.Finish(&encoded);
  return encoded;
}

TEST(IntRleBulkTest, NextBatchEqualsPerValueNext) {
  Random rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<int64_t> values = RandomIntPattern(&rng, 30);
    const std::string encoded = EncodeInts(values);
    IntRleDecoder reference(encoded);
    std::vector<int64_t> expected(values.size());
    for (int64_t& v : expected) ASSERT_TRUE(reference.Next(&v).ok());
    EXPECT_TRUE(reference.AtEnd());
    ASSERT_EQ(expected, values);
    // Batch sizes from 1 to 400 straddle run and literal boundaries.
    IntRleDecoder bulk(encoded);
    std::vector<int64_t> got(values.size());
    for (size_t at = 0; at < got.size();) {
      const size_t n = std::min<size_t>(rng.Uniform(400) + 1, got.size() - at);
      ASSERT_TRUE(bulk.NextBatch(got.data() + at, n).ok());
      at += n;
    }
    EXPECT_TRUE(bulk.AtEnd());
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(IntRleBulkTest, MixedNextAndNextBatchStayInStep) {
  Random rng(99);
  const std::vector<int64_t> values = RandomIntPattern(&rng, 50);
  const std::string encoded = EncodeInts(values);
  IntRleDecoder dec(encoded);
  std::vector<int64_t> got(values.size());
  for (size_t at = 0; at < got.size();) {
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(dec.Next(&got[at]).ok());
      ++at;
    } else {
      const size_t n = std::min<size_t>(rng.Uniform(200) + 1, got.size() - at);
      ASSERT_TRUE(dec.NextBatch(got.data() + at, n).ok());
      at += n;
    }
  }
  EXPECT_EQ(got, values);
}

TEST(IntRleBulkTest, TruncatedStreamIsCorruption) {
  Random rng(7);
  const std::vector<int64_t> values = RandomIntPattern(&rng, 12);
  const std::string encoded = EncodeInts(values);
  std::vector<int64_t> out(values.size());
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    IntRleDecoder bulk(std::string_view(encoded).substr(0, cut));
    Status s = bulk.NextBatch(out.data(), out.size());
    EXPECT_TRUE(s.IsCorruption()) << "cut " << cut << ": " << s.ToString();
  }
}

TEST(IntRleBulkTest, OverlongVarintIsCorruption) {
  // A one-value literal group whose varint runs 11 bytes: past the 10 a
  // 64-bit value can take.
  std::string encoded(1, static_cast<char>(-1));
  encoded.append(10, static_cast<char>(0x81));
  encoded.push_back(0x01);
  int64_t v;
  IntRleDecoder bulk(encoded);
  EXPECT_TRUE(bulk.NextBatch(&v, 1).IsCorruption());
  IntRleDecoder single(encoded);
  EXPECT_TRUE(single.Next(&v).IsCorruption());
  // The same value at 10 bytes still decodes.
  std::string ten(1, static_cast<char>(-1));
  ten.append(9, static_cast<char>(0x81));
  ten.push_back(0x01);
  IntRleDecoder ok(ten);
  EXPECT_TRUE(ok.NextBatch(&v, 1).ok());
}

TEST(RunLengthByteBulkTest, NextBatchEqualsPerValueNext) {
  Random rng(31);
  std::vector<uint8_t> values;
  for (int i = 0; i < 3000; ++i) {
    const uint8_t b = static_cast<uint8_t>(rng.Next());
    const size_t n = rng.Bernoulli(0.4) ? rng.Uniform(200) + 1 : 1;
    values.insert(values.end(), n, b);
  }
  RunLengthByteEncoder encoder;
  for (uint8_t b : values) encoder.Add(b);
  std::string encoded;
  encoder.Finish(&encoded);
  RunLengthByteDecoder bulk(encoded);
  std::vector<uint8_t> got(values.size());
  for (size_t at = 0; at < got.size();) {
    const size_t n = std::min<size_t>(rng.Uniform(300) + 1, got.size() - at);
    ASSERT_TRUE(bulk.NextBatch(got.data() + at, n).ok());
    at += n;
  }
  EXPECT_TRUE(bulk.AtEnd());
  EXPECT_EQ(got, values);
  uint8_t extra;
  EXPECT_TRUE(bulk.NextBatch(&extra, 1).IsCorruption());
}

TEST(BitFieldBulkTest, ByteWiseEqualsPerBit) {
  Random rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<bool> bits;
    const size_t segments = rng.Uniform(40) + 1;
    for (size_t s = 0; s < segments; ++s) {
      const size_t n = rng.Uniform(500) + 1;
      const int mode = static_cast<int>(rng.Uniform(3));
      for (size_t i = 0; i < n; ++i) {
        bits.push_back(mode == 2 ? rng.Bernoulli(0.5) : mode == 0);
      }
    }
    BitFieldEncoder encoder;
    for (bool b : bits) encoder.Add(b);
    std::string encoded;
    encoder.Finish(&encoded);
    BitFieldDecoder per_bit(encoded);
    std::vector<uint8_t> expected(bits.size());
    for (uint8_t& e : expected) {
      bool b;
      ASSERT_TRUE(per_bit.Next(&b).ok());
      e = b ? 1 : 0;
    }
    // Chunks from 1 to 100 bits start and end mid-byte.
    BitFieldDecoder bulk(encoded);
    std::vector<uint8_t> got(bits.size());
    for (size_t at = 0; at < got.size();) {
      const size_t n = std::min<size_t>(rng.Uniform(100) + 1, got.size() - at);
      ASSERT_TRUE(bulk.NextBatch(got.data() + at, n).ok());
      at += n;
    }
    EXPECT_EQ(got, expected) << "trial " << trial;
    for (size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(got[i] != 0, bits[i]);
  }
}

TEST(BitFieldBulkTest, ConcatenatedGroupsDecodeWithAlign) {
  const std::vector<bool> g1 = {true, false, true, true, false,
                                true, false, true, true, true};
  const std::vector<bool> g2 = {false, true, true};
  std::string encoded;
  for (const auto* group : {&g1, &g2}) {
    BitFieldEncoder enc;
    for (bool b : *group) enc.Add(b);
    enc.Finish(&encoded);
  }
  BitFieldDecoder dec(encoded);
  std::vector<uint8_t> got(g1.size());
  ASSERT_TRUE(dec.NextBatch(got.data(), got.size()).ok());
  for (size_t i = 0; i < g1.size(); ++i) EXPECT_EQ(got[i] != 0, g1[i]);
  dec.AlignToByte();
  got.assign(g2.size(), 0);
  ASSERT_TRUE(dec.NextBatch(got.data(), got.size()).ok());
  for (size_t i = 0; i < g2.size(); ++i) EXPECT_EQ(got[i] != 0, g2[i]);
  uint8_t extra[9];
  EXPECT_TRUE(dec.NextBatch(extra, 9).IsCorruption());
}

}  // namespace
}  // namespace minihive::orc
