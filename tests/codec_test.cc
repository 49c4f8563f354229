#include "codec/codec.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/random.h"
#include "datagen/tpch.h"

namespace minihive::codec {
namespace {

class CodecRoundTrip : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CodecRoundTrip, EmptyInput) {
  const Codec* codec = GetCodec(GetParam());
  ASSERT_NE(codec, nullptr);
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress("", &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, 0, &output).ok());
  EXPECT_EQ(output, "");
}

TEST_P(CodecRoundTrip, ShortStrings) {
  const Codec* codec = GetCodec(GetParam());
  for (const std::string input :
       {"a", "ab", "abc", "aaaa", "abcabcabcabc", "hello world hello world"}) {
    std::string compressed, output;
    ASSERT_TRUE(codec->Compress(input, &compressed).ok());
    ASSERT_TRUE(codec->Decompress(compressed, input.size(), &output).ok());
    EXPECT_EQ(output, input);
  }
}

TEST_P(CodecRoundTrip, HighlyRepetitive) {
  const Codec* codec = GetCodec(GetParam());
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "the quick brown fox ";
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() / 10)
      << "repetitive data should compress well";
  ASSERT_TRUE(codec->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CodecRoundTrip, RandomBinary) {
  const Codec* codec = GetCodec(GetParam());
  Random rng(42);
  std::string input;
  for (int i = 0; i < 100000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CodecRoundTrip, MixedStructure) {
  const Codec* codec = GetCodec(GetParam());
  Random rng(7);
  std::string input;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.5)) {
      input += "common-prefix-";
    }
    input += rng.NextString(rng.Uniform(20));
    input.push_back('\n');
  }
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size());
  ASSERT_TRUE(codec->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CodecRoundTrip, OverlappingMatchRunLength) {
  // distance < match_len exercises the forward-copy path.
  const Codec* codec = GetCodec(GetParam());
  std::string input(100000, 'x');
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), 100u);
  ASSERT_TRUE(codec->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(output, input);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values(CompressionKind::kFastLz,
                                           CompressionKind::kDeepLz),
                         [](const auto& info) {
                           return CompressionKindName(info.param);
                         });

TEST(CodecTest, DeepLzCompressesBetterOnStructuredData) {
  std::string input;
  Random rng(3);
  std::vector<std::string> words = {"alpha", "beta", "gamma", "delta",
                                    "epsilon"};
  for (int i = 0; i < 20000; ++i) {
    input += words[rng.Uniform(words.size())];
    input.push_back(' ');
  }
  std::string fast, deep;
  ASSERT_TRUE(GetCodec(CompressionKind::kFastLz)->Compress(input, &fast).ok());
  ASSERT_TRUE(GetCodec(CompressionKind::kDeepLz)->Compress(input, &deep).ok());
  EXPECT_LE(deep.size(), fast.size());
}

TEST(CodecTest, DecompressRejectsCorruptDistance) {
  std::string bogus;
  // literal_len=0, match_len=4, distance=100 (no prior output).
  bogus.push_back(0);
  bogus.push_back(4);
  bogus.push_back(100);
  std::string output;
  EXPECT_FALSE(
      GetCodec(CompressionKind::kFastLz)->Decompress(bogus, 4, &output).ok());
}

TEST(CompressionUnitsTest, RoundTripMultipleUnits) {
  const Codec* codec = GetCodec(CompressionKind::kFastLz);
  Random rng(11);
  std::string input;
  for (int i = 0; i < 3000; ++i) input += rng.NextString(100);
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(codec, input, 4096, &framed).ok());
  ASSERT_TRUE(DecompressUnits(codec, framed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionUnitsTest, NoCodecStoresRaw) {
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(nullptr, "hello units", 4, &framed).ok());
  ASSERT_TRUE(DecompressUnits(nullptr, framed, &output).ok());
  EXPECT_EQ(output, "hello units");
}

TEST(CompressionUnitsTest, EmptyPayload) {
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(nullptr, "", 4096, &framed).ok());
  ASSERT_TRUE(DecompressUnits(nullptr, framed, &output).ok());
  EXPECT_EQ(output, "");
}

TEST(CompressionUnitsTest, IncompressibleUnitStoredRaw) {
  const Codec* codec = GetCodec(CompressionKind::kFastLz);
  Random rng(5);
  std::string input;
  for (int i = 0; i < 1024; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(codec, input, 256, &framed).ok());
  ASSERT_TRUE(DecompressUnits(codec, framed, &output).ok());
  EXPECT_EQ(output, input);
}

// ---- Bounded allocation on corrupt input.

// One LZ token: literals, then a match (distance omitted when match_len=0).
void PutToken(std::string* out, std::string_view literals, uint64_t match_len,
              uint64_t distance) {
  PutVarint64(out, literals.size());
  out->append(literals);
  PutVarint64(out, match_len);
  if (match_len > 0) PutVarint64(out, distance);
}

TEST(CodecTest, HugeMatchIsRejectedBeforeCopying) {
  // A match of 2^40 bytes in a 64-byte unit must fail at once, not grow the
  // output until the unit's size check at the end.
  std::string stream;
  PutToken(&stream, "x", uint64_t{1} << 40, 1);
  std::string output = "kept";
  Status status = GetCodec(CompressionKind::kFastLz)
                      ->Decompress(stream, 64, &output);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(output, "kept");
}

TEST(CodecTest, LiteralPastUnitLengthIsRejected) {
  std::string stream;
  PutToken(&stream, std::string(32, 'a'), 0, 0);
  std::string output;
  EXPECT_TRUE(GetCodec(CompressionKind::kFastLz)
                  ->Decompress(stream, 31, &output)
                  .IsCorruption());
  EXPECT_TRUE(output.empty());
  // A literal length past the end of the input is rejected as well.
  std::string short_stream;
  PutVarint64(&short_stream, uint64_t{1} << 40);
  short_stream += "abc";
  EXPECT_TRUE(GetCodec(CompressionKind::kFastLz)
                  ->Decompress(short_stream, 3, &output)
                  .IsCorruption());
}

TEST(CodecTest, MatchCannotReachIntoEarlierOutput) {
  // Bytes already in *out belong to earlier units: a match may only refer
  // to what this call produced.
  std::string stream;
  PutToken(&stream, "", 4, 3);
  std::string output = "prefix";
  EXPECT_TRUE(GetCodec(CompressionKind::kFastLz)
                  ->Decompress(stream, 4, &output)
                  .IsCorruption());
  EXPECT_EQ(output, "prefix");
}

TEST(CompressionUnitsTest, UnitLargerThanBoundIsRejectedBeforeAllocating) {
  // original_len = 2^40 in the header of a compressed unit; allocating it
  // first would exhaust memory.
  std::string stream;
  PutToken(&stream, "abcd", 8, 4);
  std::string framed;
  PutVarint64(&framed, uint64_t{1} << 40);
  framed.push_back(1);
  PutVarint64(&framed, stream.size());
  framed += stream;
  const Codec* codec = GetCodec(CompressionKind::kFastLz);
  std::string output;
  EXPECT_TRUE(DecompressUnits(codec, framed, &output, 4096).IsCorruption());
  EXPECT_TRUE(DecompressUnits(codec, framed, &output).IsCorruption());
  // The same unit with its true length decodes.
  std::string good;
  PutVarint64(&good, 12);
  good.push_back(1);
  PutVarint64(&good, stream.size());
  good += stream;
  ASSERT_TRUE(DecompressUnits(codec, good, &output, 12).ok());
  EXPECT_EQ(output, "abcdabcdabcd");
  output.clear();
  EXPECT_TRUE(DecompressUnits(codec, good, &output, 11).IsCorruption());
}

TEST(CompressionUnitsTest, StoredUnitLengthsMustAgree) {
  std::string framed;
  PutVarint64(&framed, 5);
  framed.push_back(0);
  PutVarint64(&framed, 3);
  framed += "abc";
  std::string output;
  EXPECT_TRUE(DecompressUnits(nullptr, framed, &output).IsCorruption());
}

// ---- Differential test against the byte-at-a-time reference decoder.

// The LZ decoder as it was before it knew the unit size: a generic varint
// reader per field and one push_back per output byte, followed by
// DecompressUnits' size check. The only addition is the early stop once the
// output passes original_len, so that a corrupt match length cannot make
// the reference itself run out of memory; such a stream fails the final
// size check either way.
Status ReferenceDecompress(std::string_view input, uint64_t original_len,
                           std::string* out) {
  ByteReader reader(input);
  size_t base = out->size();
  while (!reader.AtEnd()) {
    uint64_t literal_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&literal_len));
    std::string_view literals;
    MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(literal_len, &literals));
    out->append(literals.data(), literals.size());
    uint64_t match_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&match_len));
    if (match_len == 0) continue;
    uint64_t distance;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&distance));
    size_t produced = out->size() - base;
    if (distance == 0 || distance > produced) {
      return Status::Corruption("LZ match distance out of range");
    }
    size_t from = out->size() - distance;
    for (uint64_t i = 0; i < match_len; ++i) {
      if (out->size() - base > original_len) break;
      out->push_back((*out)[from + i]);
    }
    if (out->size() - base > original_len) break;
  }
  if (out->size() - base != original_len) {
    return Status::Corruption("unit decompressed to unexpected size");
  }
  return Status::OK();
}

// Decodes `stream` with both decoders after `prefix`, and requires the same
// verdict: both succeed with identical output, or both fail, the decoder
// under test with Corruption and *out untouched.
void ExpectSameAsReference(std::string_view stream, uint64_t original_len,
                           const std::string& prefix = "") {
  std::string expected = prefix;
  Status ref = ReferenceDecompress(stream, original_len, &expected);
  std::string actual = prefix;
  Status got = GetCodec(CompressionKind::kFastLz)
                   ->Decompress(stream, original_len, &actual);
  ASSERT_EQ(got.ok(), ref.ok()) << "reference: " << ref.ToString()
                                << " decoder: " << got.ToString();
  if (ref.ok()) {
    ASSERT_EQ(actual, expected);
  } else {
    ASSERT_TRUE(got.IsCorruption()) << got.ToString();
    ASSERT_EQ(actual, prefix);
  }
}

std::string RandomPayload(size_t n) {
  Random rng(101);
  std::string out;
  for (size_t i = 0; i < n; ++i) out.push_back(static_cast<char>(rng.Next()));
  return out;
}

// Long runs of few symbols: mostly overlapping matches.
std::string RunHeavyPayload(size_t n) {
  Random rng(202);
  std::string out;
  while (out.size() < n) {
    out.append(1 + rng.Uniform(300), static_cast<char>('a' + rng.Uniform(3)));
    if (rng.Bernoulli(0.3)) out += rng.NextString(1 + rng.Uniform(5));
  }
  out.resize(n);
  return out;
}

// Column-major bytes of TPC-H lineitem rows in the encodings ORC streams
// use: zigzag varints for integers, 8-byte bits for doubles, raw strings.
std::string LineitemPayload(size_t n) {
  std::vector<Row> rows;
  for (uint64_t i = 0; i < 400; ++i) {
    rows.push_back(datagen::TpchLineitemRow(i, 1));
  }
  std::string out;
  for (size_t c = 0; c < rows[0].size() && out.size() < n; ++c) {
    for (const Row& row : rows) {
      const Value& v = row[c];
      if (v.is_int()) {
        PutVarintSigned64(&out, v.AsInt());
      } else if (v.is_double()) {
        PutDoubleBits(&out, v.AsDouble());
      } else if (v.is_string()) {
        out += v.AsString();
      }
    }
  }
  while (out.size() < n) out += out.substr(0, n - out.size());
  out.resize(n);
  return out;
}

TEST(LzDecoderDifferentialTest, RoundTripsAroundTheSlack) {
  const std::vector<std::pair<const char*, std::string>> payloads = {
      {"random", RandomPayload(20000)},
      {"run-heavy", RunHeavyPayload(20000)},
      {"lineitem", LineitemPayload(20000)}};
  for (const auto& [name, payload] : payloads) {
    for (CompressionKind kind :
         {CompressionKind::kFastLz, CompressionKind::kDeepLz}) {
      const Codec* codec = GetCodec(kind);
      for (size_t unit : {1, 15, 16, 17, 4096}) {
        SCOPED_TRACE(std::string(name) + " " + codec->name() +
                     " unit=" + std::to_string(unit));
        // Every unit decoded alone, after whatever earlier units produced.
        std::string decoded;
        for (size_t pos = 0; pos < payload.size(); pos += unit) {
          std::string_view piece =
              std::string_view(payload).substr(pos, unit);
          std::string compressed;
          ASSERT_TRUE(codec->Compress(piece, &compressed).ok());
          ExpectSameAsReference(compressed, piece.size(), decoded);
          ASSERT_TRUE(
              codec->Decompress(compressed, piece.size(), &decoded).ok());
        }
        ASSERT_EQ(decoded, payload);
        // The framed form decodes to the same bytes.
        std::string framed, unframed;
        ASSERT_TRUE(CompressToUnits(codec, payload, unit, &framed).ok());
        ASSERT_TRUE(DecompressUnits(codec, framed, &unframed, unit).ok());
        ASSERT_EQ(unframed, payload);
      }
    }
  }
}

TEST(LzDecoderDifferentialTest, HandBuiltOverlappingMatches) {
  for (uint64_t distance = 1; distance <= 20; ++distance) {
    for (uint64_t len = 1; len <= 40; ++len) {
      SCOPED_TRACE("distance=" + std::to_string(distance) +
                   " len=" + std::to_string(len));
      // A seed pattern of `distance` distinct bytes, the match, then a short
      // literal written right behind it; once with the seed at the start of
      // the output and once behind 25 other bytes.
      for (size_t lead : {size_t{0}, size_t{25}}) {
        std::string lead_bytes(lead, '#');
        std::string seed;
        for (uint64_t i = 0; i < distance; ++i) {
          seed.push_back(static_cast<char>('a' + i));
        }
        std::string stream;
        PutToken(&stream, lead_bytes + seed, len, distance);
        PutToken(&stream, "tail", 0, 0);
        std::string expected = lead_bytes + seed;
        for (uint64_t i = 0; i < len; ++i) {
          expected.push_back(expected[expected.size() - distance]);
        }
        expected += "tail";
        ExpectSameAsReference(stream, expected.size());
        std::string out;
        ASSERT_TRUE(GetCodec(CompressionKind::kFastLz)
                        ->Decompress(stream, expected.size(), &out)
                        .ok());
        ASSERT_EQ(out, expected);
        // One byte short or long is a size mismatch.
        ExpectSameAsReference(stream, expected.size() - 1);
        ExpectSameAsReference(stream, expected.size() + 1);
      }
    }
  }
}

TEST(LzDecoderDifferentialTest, EveryTruncationAndByteFlip) {
  std::string payload = RunHeavyPayload(150) + LineitemPayload(150) +
                        std::string(40, 'z') + RandomPayload(20);
  for (CompressionKind kind :
       {CompressionKind::kFastLz, CompressionKind::kDeepLz}) {
    std::string stream;
    ASSERT_TRUE(GetCodec(kind)->Compress(payload, &stream).ok());
    SCOPED_TRACE(CompressionKindName(kind));
    ExpectSameAsReference(stream, payload.size());
    for (size_t cut = 0; cut < stream.size(); ++cut) {
      SCOPED_TRACE("cut=" + std::to_string(cut));
      ExpectSameAsReference(std::string_view(stream).substr(0, cut),
                            payload.size());
    }
    for (size_t pos = 0; pos < stream.size(); ++pos) {
      for (int delta = 1; delta < 256; ++delta) {
        std::string flipped = stream;
        flipped[pos] = static_cast<char>(flipped[pos] ^ delta);
        SCOPED_TRACE("pos=" + std::to_string(pos) +
                     " xor=" + std::to_string(delta));
        ExpectSameAsReference(flipped, payload.size());
      }
    }
  }
}

}  // namespace
}  // namespace minihive::codec
