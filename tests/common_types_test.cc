#include "common/types.h"

#include <gtest/gtest.h>

#include <string>

#include "common/crc32.h"

namespace minihive {
namespace {

TEST(TypeDescriptionTest, PaperFigure3ColumnIds) {
  // The example table from the paper's Figure 3.
  auto result = TypeDescription::Parse(
      "struct<col1:int,col2:array<int>,"
      "col4:map<string,struct<col7:string,col8:int>>,col9:string>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  TypePtr schema = *result;
  schema->AssignColumnIds(0);
  EXPECT_EQ(schema->column_id(), 0);
  EXPECT_EQ(schema->children()[0]->column_id(), 1);               // col1
  EXPECT_EQ(schema->children()[1]->column_id(), 2);               // col2
  EXPECT_EQ(schema->children()[1]->children()[0]->column_id(), 3);  // items
  EXPECT_EQ(schema->children()[2]->column_id(), 4);               // col4
  EXPECT_EQ(schema->children()[2]->children()[0]->column_id(), 5);  // key
  EXPECT_EQ(schema->children()[2]->children()[1]->column_id(), 6);  // value
  EXPECT_EQ(schema->children()[2]->children()[1]->children()[0]->column_id(),
            7);                                                   // col7
  EXPECT_EQ(schema->children()[2]->children()[1]->children()[1]->column_id(),
            8);                                                   // col8
  EXPECT_EQ(schema->children()[3]->column_id(), 9);               // col9
  EXPECT_EQ(schema->ColumnCount(), 10);
}

TEST(TypeDescriptionTest, RoundTripToString) {
  const char* text =
      "struct<a:bigint,b:array<double>,c:map<string,int>,"
      "d:uniontype<int,string>,e:boolean>";
  auto result = TypeDescription::Parse(text);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->ToString(), text);
}

TEST(TypeDescriptionTest, ParseErrors) {
  EXPECT_FALSE(TypeDescription::Parse("arry<int>").ok());
  EXPECT_FALSE(TypeDescription::Parse("array<int").ok());
  EXPECT_FALSE(TypeDescription::Parse("map<int>").ok());
  EXPECT_FALSE(TypeDescription::Parse("struct<a int>").ok());
  EXPECT_FALSE(TypeDescription::Parse("int,int").ok());
}

TEST(TypeKindTest, Families) {
  EXPECT_TRUE(IsIntegerFamily(TypeKind::kBoolean));
  EXPECT_TRUE(IsIntegerFamily(TypeKind::kTimestamp));
  EXPECT_FALSE(IsIntegerFamily(TypeKind::kDouble));
  EXPECT_TRUE(IsFloatingFamily(TypeKind::kFloat));
  EXPECT_FALSE(IsPrimitive(TypeKind::kMap));
  EXPECT_TRUE(IsPrimitive(TypeKind::kString));
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32Scalar("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, FoldedArmMatchesSliceBy8) {
  // Every length 0..4096 at every alignment 0..15. Without the folding arm
  // (compiled out or no PCLMULQDQ) both calls take slice-by-8.
  std::string buf(4096 + 16, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : buf) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(x >> 56);
  }
  for (size_t align = 0; align < 16; ++align) {
    for (size_t n = 0; n <= 4096; ++n) {
      std::string_view data(buf.data() + align, n);
      ASSERT_EQ(Crc32(data), Crc32Scalar(data))
          << "align " << align << " length " << n;
    }
  }
}

TEST(Crc32Test, ChainedSeedsMatch) {
  std::string buf(3000, '\0');
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 131);
  const std::string_view all(buf);
  const uint32_t whole = Crc32Scalar(all);
  for (size_t cut : {0, 1, 15, 63, 64, 65, 1000, 2999, 3000}) {
    const uint32_t head = Crc32(all.substr(0, cut));
    EXPECT_EQ(Crc32(all.substr(cut), head), whole) << "cut " << cut;
    EXPECT_EQ(Crc32Scalar(all.substr(cut), Crc32Scalar(all.substr(0, cut))),
              whole)
        << "cut " << cut;
  }
  for (uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    EXPECT_EQ(Crc32(all, seed), Crc32Scalar(all, seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace minihive
