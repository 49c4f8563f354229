#include "formats/format.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/random.h"
#include "formats/rcfile.h"

namespace minihive::formats {
namespace {

TypePtr Schema() {
  return *TypeDescription::Parse(
      "struct<id:bigint,name:string,score:double>");
}

Row MakeRow(int64_t id, Random* rng) {
  return {Value::Int(id), Value::String("name-" + std::to_string(id % 100)),
          Value::Double(rng->NextDouble() * 100)};
}

struct FormatCase {
  FormatKind kind;
  codec::CompressionKind compression;
};

class FormatRoundTrip : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatRoundTrip, WriteReadAllRows) {
  dfs::FileSystem fs;
  const FileFormat* format = GetFileFormat(GetParam().kind);
  TypePtr schema = Schema();
  WriterOptions wopts;
  wopts.compression = GetParam().compression;
  auto writer =
      std::move(format->CreateWriter(&fs, "/t/f0", schema, wopts)).ValueOrDie();
  Random rng(1);
  const int kRows = 5000;
  std::vector<Row> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back(MakeRow(i, &rng));
    ASSERT_TRUE(writer->AddRow(rows.back()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  auto reader =
      std::move(format->OpenReader(&fs, "/t/f0", schema, ReadOptions()))
          .ValueOrDie();
  Row row;
  for (int i = 0; i < kRows; ++i) {
    auto next = reader->Next(&row);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(*next) << "premature EOF at row " << i;
    EXPECT_EQ(row[0].AsInt(), rows[i][0].AsInt());
    EXPECT_EQ(row[1].AsString(), rows[i][1].AsString());
    EXPECT_DOUBLE_EQ(row[2].AsDouble(), rows[i][2].AsDouble());
  }
  EXPECT_FALSE(*reader->Next(&row));
}

TEST_P(FormatRoundTrip, SplitsCoverFileExactlyOnce) {
  dfs::FileSystem fs;
  const FileFormat* format = GetFileFormat(GetParam().kind);
  TypePtr schema = Schema();
  WriterOptions wopts;
  wopts.compression = GetParam().compression;
  auto writer =
      std::move(format->CreateWriter(&fs, "/t/split", schema, wopts))
          .ValueOrDie();
  Random rng(2);
  const int kRows = 20000;
  int64_t id_sum = 0;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(writer->AddRow(MakeRow(i, &rng)).ok());
    id_sum += i;
  }
  ASSERT_TRUE(writer->Close().ok());

  uint64_t file_size = *fs.FileSize("/t/split");
  // Chop the file into 7 arbitrary byte ranges; every row must be seen
  // exactly once across the splits.
  const int kSplits = 7;
  uint64_t chunk = file_size / kSplits + 1;
  int total_rows = 0;
  int64_t total_id_sum = 0;
  for (int s = 0; s < kSplits; ++s) {
    ReadOptions ropts;
    ropts.split_offset = s * chunk;
    ropts.split_length = chunk;
    if (ropts.split_offset >= file_size) break;
    auto reader =
        std::move(format->OpenReader(&fs, "/t/split", schema, ropts))
            .ValueOrDie();
    Row row;
    while (true) {
      auto next = reader->Next(&row);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!*next) break;
      ++total_rows;
      total_id_sum += row[0].AsInt();
    }
  }
  EXPECT_EQ(total_rows, kRows);
  EXPECT_EQ(total_id_sum, id_sum);
}

TEST_P(FormatRoundTrip, ProjectionReturnsOnlyRequestedColumns) {
  dfs::FileSystem fs;
  const FileFormat* format = GetFileFormat(GetParam().kind);
  TypePtr schema = Schema();
  WriterOptions wopts;
  wopts.compression = GetParam().compression;
  auto writer =
      std::move(format->CreateWriter(&fs, "/t/proj", schema, wopts))
          .ValueOrDie();
  Random rng(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer->AddRow(MakeRow(i, &rng)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  ReadOptions ropts;
  ropts.projected_columns = {0};
  auto reader =
      std::move(format->OpenReader(&fs, "/t/proj", schema, ropts)).ValueOrDie();
  Row row;
  ASSERT_TRUE(*reader->Next(&row));
  EXPECT_EQ(row[0].AsInt(), 0);
  EXPECT_TRUE(row[1].is_null());
  EXPECT_TRUE(row[2].is_null());
}

std::string CaseName(
    const ::testing::TestParamInfo<FormatCase>& info) {
  std::string name = FormatKindName(info.param.kind);
  name += "_";
  name += codec::CompressionKindName(info.param.compression);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, FormatRoundTrip,
    ::testing::Values(
        FormatCase{FormatKind::kTextFile, codec::CompressionKind::kNone},
        FormatCase{FormatKind::kSequenceFile, codec::CompressionKind::kNone},
        FormatCase{FormatKind::kRcFile, codec::CompressionKind::kNone},
        FormatCase{FormatKind::kRcFile, codec::CompressionKind::kFastLz},
        FormatCase{FormatKind::kOrcFile, codec::CompressionKind::kNone},
        FormatCase{FormatKind::kOrcFile, codec::CompressionKind::kFastLz}),
    CaseName);

TEST(RcFileTest, ColumnProjectionReadsFewerBytes) {
  dfs::FileSystem fs;
  const FileFormat* format = GetFileFormat(FormatKind::kRcFile);
  TypePtr schema = Schema();
  auto writer =
      std::move(format->CreateWriter(&fs, "/t/io", schema, WriterOptions()))
          .ValueOrDie();
  Random rng(4);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(writer->AddRow(MakeRow(i, &rng)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  auto scan = [&](std::vector<int> projection) {
    fs.stats().Reset();
    ReadOptions ropts;
    ropts.projected_columns = std::move(projection);
    auto reader =
        std::move(format->OpenReader(&fs, "/t/io", schema, ropts)).ValueOrDie();
    Row row;
    while (*reader->Next(&row)) {
    }
    return fs.stats().bytes_read.load();
  };
  uint64_t all_bytes = scan({});
  uint64_t one_col_bytes = scan({0});
  EXPECT_LT(one_col_bytes, all_bytes / 2)
      << "columnar projection should cut I/O substantially";
}

TEST(RcFileTest, ComplexTypesStoredWhole) {
  // RCFile does not decompose complex types: it must still round-trip them
  // (as opaque text), which is the inefficiency the paper calls out.
  dfs::FileSystem fs;
  const FileFormat* format = GetFileFormat(FormatKind::kRcFile);
  TypePtr schema = *TypeDescription::Parse(
      "struct<id:int,m:map<string,int>>");
  auto writer =
      std::move(format->CreateWriter(&fs, "/t/cx", schema, WriterOptions()))
          .ValueOrDie();
  Row row = {Value::Int(1),
             Value::MakeMap({{Value::String("a"), Value::Int(1)},
                             {Value::String("b"), Value::Int(2)}})};
  ASSERT_TRUE(writer->AddRow(row).ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader =
      std::move(format->OpenReader(&fs, "/t/cx", schema, ReadOptions()))
          .ValueOrDie();
  Row out;
  ASSERT_TRUE(*reader->Next(&out));
  EXPECT_EQ(out[1].Compare(row[1]), 0);
}

TEST(RcFileTest, HugeRawLengthIsRejectedBeforeAllocating) {
  dfs::FileSystem fs;
  const FileFormat* format = GetFileFormat(FormatKind::kRcFile);
  TypePtr schema = Schema();
  WriterOptions options;
  options.compression = codec::CompressionKind::kFastLz;
  {
    auto writer = std::move(format->CreateWriter(&fs, "/t/raw", schema,
                                                 options))
                      .ValueOrDie();
    Random rng(5);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(writer->AddRow(MakeRow(i, &rng)).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }
  std::string file;
  {
    auto in = std::move(fs.Open("/t/raw")).ValueOrDie();
    ASSERT_TRUE(in->ReadAt(0, in->Size(), &file).ok());
  }
  // The first row group follows the 8-byte magic, the codec byte and the
  // 16-byte sync marker: a 0 escape, the marker again, the row and column
  // counts, then (stored_len, raw_len) per column.
  ByteReader header(std::string_view(file).substr(8 + 1 + 16));
  uint64_t value;
  std::string_view marker;
  ASSERT_TRUE(header.GetVarint64(&value).ok());
  ASSERT_EQ(value, 0u);
  ASSERT_TRUE(header.GetBytes(16, &marker).ok());
  ASSERT_TRUE(header.GetVarint64(&value).ok());  // Rows.
  ASSERT_TRUE(header.GetVarint64(&value).ok());  // Columns.
  ASSERT_TRUE(header.GetVarint64(&value).ok());  // Column 0 stored_len.
  const size_t raw_len_at = 8 + 1 + 16 + header.position();
  ASSERT_TRUE(header.GetVarint64(&value).ok());  // Column 0 raw_len.
  const size_t raw_len_end = 8 + 1 + 16 + header.position();
  std::string corrupt = file.substr(0, raw_len_at);
  PutVarint64(&corrupt, uint64_t{1} << 50);
  corrupt += file.substr(raw_len_end);
  ASSERT_TRUE(fs.Delete("/t/raw").ok());
  {
    auto out = std::move(fs.Create("/t/raw")).ValueOrDie();
    ASSERT_TRUE(out->Append(corrupt).ok());
    ASSERT_TRUE(out->Close().ok());
  }
  auto reader =
      std::move(format->OpenReader(&fs, "/t/raw", schema, ReadOptions()))
          .ValueOrDie();
  Row row;
  Result<bool> more = reader->Next(&row);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsCorruption()) << more.status().ToString();
}

}  // namespace
}  // namespace minihive::formats
