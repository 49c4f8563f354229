/// Corruption round-trip for the ORC checksum layer: flip single bytes at
/// sampled offsets of a multi-stripe file and require the reader to either
/// return the exact original rows (the flip landed in dead bytes) or fail
/// with a typed Corruption/IoError — never silently wrong data. Also
/// checks locality of damage: corrupting stripe 2 must not stop stripe 1
/// from being read.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/random.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive::orc {
namespace {

TypePtr Schema() {
  return *TypeDescription::Parse(
      "struct<id:bigint,name:string,score:double>");
}

Row MakeRow(int64_t i) {
  return {Value::Int(i), Value::String("name-" + std::to_string(i % 40)),
          Value::Double(i * 0.25)};
}

/// Writes a small-stripe file so corruption tests span several stripes.
void WriteFile(dfs::FileSystem* fs, const std::string& path, int rows) {
  OrcWriterOptions options;
  options.stripe_size = 48 * 1024;
  options.row_index_stride = 1000;
  auto writer =
      std::move(OrcWriter::Create(fs, path, Schema(), options)).ValueOrDie();
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(writer->AddRow(MakeRow(i)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

std::string ReadWholeFile(dfs::FileSystem* fs, const std::string& path) {
  auto file = std::move(fs->Open(path)).ValueOrDie();
  std::string contents;
  EXPECT_TRUE(file->ReadAt(0, file->Size(), &contents).ok());
  return contents;
}

/// Replaces `path` with `contents` (the DFS is append-only, so corruption
/// means rewrite).
void OverwriteFile(dfs::FileSystem* fs, const std::string& path,
                   const std::string& contents) {
  ASSERT_TRUE(fs->Delete(path).ok());
  auto writer = std::move(fs->Create(path)).ValueOrDie();
  ASSERT_TRUE(writer->Append(contents).ok());
  ASSERT_TRUE(writer->Close().ok());
}

/// Reads every row; returns OK plus the rows, or the first error.
Status ReadAllRows(dfs::FileSystem* fs, const std::string& path,
                   std::vector<Row>* rows) {
  auto reader = OrcReader::Open(fs, path);
  if (!reader.ok()) return reader.status();
  Row row;
  while (true) {
    Result<bool> more = (*reader)->NextRow(&row);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    rows->push_back(row);
  }
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].Compare(b[i][c]) != 0) return false;
    }
  }
  return true;
}

constexpr int kRows = 12000;

TEST(OrcCorruptionTest, SingleByteFlipsAreDetectedOrHarmless) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/victim", kRows);
  std::string pristine = ReadWholeFile(&fs, "/orc/victim");
  ASSERT_GT(pristine.size(), 100u);

  std::vector<Row> golden;
  ASSERT_TRUE(ReadAllRows(&fs, "/orc/victim", &golden).ok());
  ASSERT_EQ(golden.size(), static_cast<size_t>(kRows));

  // Sampled offsets across the whole file, plus the tail region (footer,
  // postscript) which a uniform sample would rarely hit.
  Random rng(20260806);
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 48; ++i) offsets.push_back(rng.Uniform(pristine.size()));
  for (int i = 0; i < 16; ++i) {
    offsets.push_back(pristine.size() - 1 - rng.Uniform(200));
  }

  int detected = 0;
  int harmless = 0;
  for (uint64_t offset : offsets) {
    std::string corrupt = pristine;
    corrupt[offset] ^= 0x40;
    if (corrupt == pristine) continue;  // Paranoia; XOR 0x40 always changes.
    OverwriteFile(&fs, "/orc/victim", corrupt);

    std::vector<Row> rows;
    Status s = ReadAllRows(&fs, "/orc/victim", &rows);
    if (s.ok()) {
      // The flip must have been invisible to the decoder; the rows must
      // still be exactly right (e.g. the flip hit stripe padding).
      EXPECT_TRUE(SameRows(rows, golden))
          << "offset " << offset << ": read OK but rows differ";
      ++harmless;
    } else {
      EXPECT_TRUE(s.IsCorruption() || s.IsIoError())
          << "offset " << offset << ": untyped error " << s.ToString();
      ++detected;
    }
  }
  OverwriteFile(&fs, "/orc/victim", pristine);

  // Most flips land in live bytes of a dense file: detection must dominate.
  EXPECT_GT(detected, harmless)
      << detected << " detected vs " << harmless << " harmless";
  EXPECT_GT(detected, 30);
}

TEST(OrcCorruptionTest, ChecksumMismatchMessageNamesTheSection) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/tail", kRows);
  std::string pristine = ReadWholeFile(&fs, "/orc/tail");

  // Damage the footer: its length is recorded in the postscript, whose own
  // bytes sit at the very end — corrupting ~150 bytes before the end lands
  // in footer/metadata territory for this file size.
  std::string corrupt = pristine;
  corrupt[corrupt.size() - 30] ^= 0x01;
  OverwriteFile(&fs, "/orc/tail", corrupt);
  auto reader = OrcReader::Open(&fs, "/orc/tail");
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
}

/// Returns `file` with its postscript's compression-unit varint replaced by
/// `unit` (the postscript is unchecksummed, so only the bound can catch it).
std::string WithCompressionUnit(const std::string& file, uint64_t unit) {
  const size_t ps_len = static_cast<uint8_t>(file.back());
  const size_t ps_start = file.size() - 1 - ps_len;
  ByteReader ps(std::string_view(file).substr(ps_start, ps_len));
  uint64_t ignored;
  uint8_t codec_byte;
  EXPECT_TRUE(ps.GetVarint64(&ignored).ok());  // Footer length.
  EXPECT_TRUE(ps.GetVarint64(&ignored).ok());  // Metadata length.
  EXPECT_TRUE(ps.GetByte(&codec_byte).ok());
  const size_t unit_start = ps.position();
  EXPECT_TRUE(ps.GetVarint64(&ignored).ok());
  std::string postscript = file.substr(ps_start, unit_start);
  PutVarint64(&postscript, unit);
  postscript += file.substr(ps_start + ps.position(),
                            ps_len - ps.position());
  return file.substr(0, ps_start) + postscript +
         static_cast<char>(postscript.size());
}

TEST(OrcCorruptionTest, CompressionUnitOutOfBoundsIsRejected) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/unit", 2000);
  const std::string pristine = ReadWholeFile(&fs, "/orc/unit");

  // The writer's own unit size round-trips through the patch unchanged.
  OverwriteFile(&fs, "/orc/unit",
                WithCompressionUnit(pristine,
                                    codec::kDefaultCompressionUnitSize));
  std::vector<Row> rows;
  ASSERT_TRUE(ReadAllRows(&fs, "/orc/unit", &rows).ok());
  EXPECT_EQ(rows.size(), 2000u);

  for (uint64_t unit : {uint64_t{0}, codec::kDefaultCompressionUnitSize + 1,
                        uint64_t{1} << 40}) {
    OverwriteFile(&fs, "/orc/unit", WithCompressionUnit(pristine, unit));
    auto reader = OrcReader::Open(&fs, "/orc/unit");
    ASSERT_FALSE(reader.ok()) << "unit " << unit;
    EXPECT_TRUE(reader.status().IsCorruption())
        << reader.status().ToString();
  }
}

/// A one-stripe file with its stripe footer and index parsed, so a test can
/// edit them and write the file back with every checksum recomputed: only
/// the reader's consistency checks can then reject the edit.
constexpr char kSectionsPath[] = "/orc/sections";

struct StripeSections {
  std::string file;
  FileTail tail;
  StripeFooter footer;
  StripeIndex index;
};

std::string Compressed(const std::string& raw) {
  std::string stored;
  EXPECT_TRUE(codec::CompressToUnits(nullptr, raw,
                                     codec::kDefaultCompressionUnitSize,
                                     &stored)
                  .ok());
  return stored;
}

std::string Decompressed(std::string_view stored) {
  std::string raw;
  EXPECT_TRUE(codec::DecompressUnits(nullptr, stored, &raw).ok());
  return raw;
}

template <typename Section>
std::string Serialized(const Section& section) {
  std::string raw;
  section.Serialize(&raw);
  return raw;
}

/// Rebuilds the file around new raw stripe index and footer sections,
/// recomputing the stripe's section checksums, the file footer and
/// metadata, and the postscript.
std::string Rebuilt(const StripeSections& sections,
                    const std::string& index_raw,
                    const std::string& footer_raw) {
  const StripeInformation& old = sections.tail.stripes[0];
  const std::string index_bytes = Compressed(index_raw);
  const std::string footer_bytes = Compressed(footer_raw);
  FileTail tail = sections.tail;
  StripeInformation& info = tail.stripes[0];
  info.index_length = index_bytes.size();
  info.footer_length = footer_bytes.size();
  info.index_crc = Crc32(index_bytes);
  info.footer_crc = Crc32(footer_bytes);
  std::string metadata_raw, file_footer_raw;
  SerializeFileMetadata(tail, &metadata_raw);
  SerializeFileFooter(tail, &file_footer_raw);
  const std::string metadata_bytes = Compressed(metadata_raw);
  const std::string file_footer_bytes = Compressed(file_footer_raw);
  std::string postscript;
  PutVarint64(&postscript, file_footer_bytes.size());
  PutVarint64(&postscript, metadata_bytes.size());
  postscript.push_back(static_cast<char>(tail.compression));
  PutVarint64(&postscript, tail.compression_unit);
  PutVarint64(&postscript, tail.row_index_stride);
  PutFixed32(&postscript, Crc32(file_footer_bytes));
  PutFixed32(&postscript, Crc32(metadata_bytes));
  postscript.append(kOrcMagic, kOrcMagicLen);
  return sections.file.substr(0, old.offset) + index_bytes +
         sections.file.substr(old.offset + old.index_length,
                              old.data_length) +
         footer_bytes + metadata_bytes + file_footer_bytes + postscript +
         static_cast<char>(postscript.size());
}

/// Writes the rebuilt file and scans it with a predicate that keeps every
/// group, so both the stripe footer and the row index are used.
Status ScanRebuilt(dfs::FileSystem* fs, const StripeSections& sections,
                   const std::string& index_raw, const std::string& footer_raw,
                   bool verify_checksums) {
  OverwriteFile(fs, kSectionsPath, Rebuilt(sections, index_raw, footer_raw));
  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kGreaterThanEquals, Value::Int(0), {}, {}});
  OrcReadOptions options;
  options.sarg = &sarg;
  options.verify_checksums = verify_checksums;
  auto reader = OrcReader::Open(fs, kSectionsPath, options);
  if (!reader.ok()) return reader.status();
  Row row;
  for (int64_t i = 0;; ++i) {
    Result<bool> more = (*reader)->NextRow(&row);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    if (row[0].AsInt() != i) return Status::Internal("wrong row");
  }
}

/// Writes a one-stripe, three-group file and parses its sections.
StripeSections WriteOneStripe(dfs::FileSystem* fs) {
  OrcWriterOptions options;
  options.row_index_stride = 1000;
  auto writer = std::move(OrcWriter::Create(fs, kSectionsPath, Schema(),
                                            options))
                    .ValueOrDie();
  for (int i = 0; i < 3000; ++i) EXPECT_TRUE(writer->AddRow(MakeRow(i)).ok());
  EXPECT_TRUE(writer->Close().ok());
  StripeSections sections;
  sections.file = ReadWholeFile(fs, kSectionsPath);
  sections.tail =
      std::move(OrcReader::Open(fs, kSectionsPath)).ValueOrDie()->tail();
  EXPECT_EQ(sections.tail.stripes.size(), 1u);
  const StripeInformation& s = sections.tail.stripes[0];
  std::string_view file = sections.file;
  EXPECT_TRUE(StripeFooter::Deserialize(
                  Decompressed(file.substr(
                      s.offset + s.index_length + s.data_length,
                      s.footer_length)),
                  &sections.footer)
                  .ok());
  EXPECT_TRUE(StripeIndex::Deserialize(
                  Decompressed(file.substr(s.offset, s.index_length)),
                  &sections.index)
                  .ok());
  EXPECT_EQ(sections.footer.num_groups, 3u);
  // Unedited sections rebuild into a file that reads back intact.
  Status round_trip = ScanRebuilt(fs, sections, Serialized(sections.index),
                                  Serialized(sections.footer), true);
  EXPECT_TRUE(round_trip.ok()) << round_trip.ToString();
  return sections;
}

void ExpectRejected(dfs::FileSystem* fs, const StripeSections& sections,
                    bool verify_checksums = true) {
  Status s = ScanRebuilt(fs, sections, Serialized(sections.index),
                         Serialized(sections.footer), verify_checksums);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(OrcCorruptionTest, StreamColumnOutsideSchemaIsRejected) {
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  sections.footer.streams[0].column = 127;
  ExpectRejected(&fs, sections);
}

TEST(OrcCorruptionTest, UnknownStreamKindIsRejected) {
  // An unknown kind would bind to no stream slot, leaving the column
  // without the data stream its decode dereferences.
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  ASSERT_EQ(sections.footer.streams[0].kind, StreamKind::kData);
  sections.footer.streams[0].kind = static_cast<StreamKind>(9);
  ExpectRejected(&fs, sections);
}

TEST(OrcCorruptionTest, ColumnMissingARequiredStreamIsRejected) {
  // Drop the stripe's last stream (the score column's data) from the
  // directory and the row index alike: every other stream keeps its
  // offset, so only the per-column stream check can catch the gap.
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  const StreamInfo last = sections.footer.streams.back();
  ASSERT_EQ(last.kind, StreamKind::kData);
  ASSERT_EQ(last.column, 3u);
  sections.footer.streams.pop_back();
  sections.index.segment_ends.pop_back();
  sections.index.segment_crcs.pop_back();
  ExpectRejected(&fs, sections);
}

TEST(OrcCorruptionTest, FooterColumnCountMismatchIsRejected) {
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  StripeFooter& footer = sections.footer;
  footer.encodings.pop_back();
  footer.dictionary_sizes.pop_back();
  footer.instance_counts.pop_back();
  footer.nonnull_counts.pop_back();
  ExpectRejected(&fs, sections);
}

TEST(OrcCorruptionTest, SegmentListCountMismatchIsRejected) {
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  sections.index.segment_ends.pop_back();
  sections.index.segment_crcs.pop_back();
  ExpectRejected(&fs, sections);
}

TEST(OrcCorruptionTest, SegmentListLengthMismatchIsRejected) {
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  ASSERT_FALSE(IsStripeScoped(sections.footer.streams.back().kind));
  sections.index.segment_ends.back().resize(1);
  sections.index.segment_crcs.back().resize(1);
  ExpectRejected(&fs, sections);
}

TEST(OrcCorruptionTest, DecreasingSegmentEndsAreRejected) {
  // Segment checksums cover the original boundaries, so read unverified:
  // a swapped pair would otherwise decode another group's values.
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  std::vector<uint64_t>& ends = sections.index.segment_ends[0];
  ASSERT_EQ(ends.size(), 3u);
  std::swap(ends[0], ends[1]);
  ExpectRejected(&fs, sections, /*verify_checksums=*/false);
}

TEST(OrcCorruptionTest, SegmentEndPastTheStreamIsRejected) {
  // The last segment of stream 0 reaches over the whole first segment of
  // stream 1: its units decode cleanly, so only the bound can catch it.
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  ASSERT_FALSE(IsStripeScoped(sections.footer.streams[1].kind));
  sections.index.segment_ends[0].back() =
      sections.footer.streams[0].length + sections.index.segment_ends[1][0];
  ExpectRejected(&fs, sections, /*verify_checksums=*/false);
}

TEST(OrcCorruptionTest, GroupStatsShapeMismatchIsRejected) {
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  sections.index.group_stats.pop_back();
  ExpectRejected(&fs, sections);
}

/// Returns `raw` with the varint at byte `at` replaced by `value`.
std::string WithVarintAt(const std::string& raw, size_t at, uint64_t value) {
  ByteReader reader(std::string_view(raw).substr(at));
  uint64_t ignored;
  EXPECT_TRUE(reader.GetVarint64(&ignored).ok());
  std::string out = raw.substr(0, at);
  PutVarint64(&out, value);
  return out + raw.substr(at + reader.position());
}

TEST(OrcCorruptionTest, ElementCountsPastTheSectionAreRejected) {
  dfs::FileSystem fs;
  StripeSections sections = WriteOneStripe(&fs);
  const std::string index_raw = Serialized(sections.index);
  const std::string footer_raw = Serialized(sections.footer);
  // Byte offsets of the footer's column and group counts: serialize the
  // footer with those counts zeroed, so they end the output.
  StripeFooter head = sections.footer;
  head.num_groups = 0;
  const size_t groups_at = Serialized(head).size() - 1;
  head.encodings.clear();
  const size_t columns_at = Serialized(head).size() - 2;

  const uint64_t kHuge = uint64_t{1} << 50;
  struct Case {
    const char* what;
    std::string index;
    std::string footer;
  };
  const Case cases[] = {
      {"footer streams", index_raw, WithVarintAt(footer_raw, 0, kHuge)},
      {"footer columns", index_raw,
       WithVarintAt(footer_raw, columns_at, kHuge)},
      {"footer groups", index_raw, WithVarintAt(footer_raw, groups_at, kHuge)},
      {"index segment lists", WithVarintAt(index_raw, 0, kHuge), footer_raw},
      {"index list length", WithVarintAt(index_raw, 1, kHuge), footer_raw},
  };
  for (const Case& c : cases) {
    Status s = ScanRebuilt(&fs, sections, c.index, c.footer, true);
    EXPECT_TRUE(s.IsCorruption()) << c.what << ": " << s.ToString();
  }
}

TEST(OrcCorruptionTest, UntouchedStripesRemainReadable) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/partial", kRows);
  std::string pristine = ReadWholeFile(&fs, "/orc/partial");

  auto clean_reader = std::move(OrcReader::Open(&fs, "/orc/partial"))
                          .ValueOrDie();
  const FileTail& tail = clean_reader->tail();
  ASSERT_GE(tail.stripes.size(), 2u) << "need a multi-stripe file";
  const StripeInformation& s0 = tail.stripes[0];
  const StripeInformation& s1 = tail.stripes[1];
  ASSERT_GT(s0.num_rows, 0u);
  ASSERT_GT(s1.num_rows, 0u);

  // Flip a byte in the middle of stripe 2's data section.
  std::string corrupt = pristine;
  uint64_t victim = s1.offset + s1.index_length + s1.data_length / 2;
  corrupt[victim] ^= 0x40;
  OverwriteFile(&fs, "/orc/partial", corrupt);

  auto reader = std::move(OrcReader::Open(&fs, "/orc/partial")).ValueOrDie();
  Row row;
  // All of stripe 1 must read back exactly.
  for (uint64_t i = 0; i < s0.num_rows; ++i) {
    Result<bool> more = reader->NextRow(&row);
    ASSERT_TRUE(more.ok())
        << "stripe 1 row " << i << ": " << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(i));
  }
  // Stripe 2 must fail typed — and never hand back wrong rows.
  bool failed = false;
  for (uint64_t i = 0; i < s1.num_rows; ++i) {
    Result<bool> more = reader->NextRow(&row);
    if (!more.ok()) {
      EXPECT_TRUE(more.status().IsCorruption() || more.status().IsIoError())
          << more.status().ToString();
      failed = true;
      break;
    }
    ASSERT_TRUE(*more);
    EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(s0.num_rows + i))
        << "corrupted stripe produced a wrong row before failing";
  }
  EXPECT_TRUE(failed) << "stripe 2 data flip was never detected";
}

TEST(OrcCorruptionTest, VerificationCanBeDisabled) {
  // verify_checksums=false restores the old reader behaviour (needed to
  // measure the checksum cost, and as an escape hatch for salvage reads).
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/noverify", 4000);
  auto reader = OrcReader::Open(&fs, "/orc/noverify");
  ASSERT_TRUE(reader.ok());
  OrcReadOptions options;
  options.verify_checksums = false;
  auto lax = OrcReader::Open(&fs, "/orc/noverify", options);
  ASSERT_TRUE(lax.ok());
  Row row;
  uint64_t n = 0;
  while (true) {
    Result<bool> more = (*lax)->NextRow(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++n;
  }
  EXPECT_EQ(n, 4000u);
}

}  // namespace
}  // namespace minihive::orc
