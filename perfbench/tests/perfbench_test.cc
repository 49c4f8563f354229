// Tests of the benchmark's own logic: the percentile rule, medians, span
// self time, and the result checks (a perturbed answer must be rejected).

#include <gtest/gtest.h>

#include <numeric>

#include "checks.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using minihive::Row;
using minihive::Value;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileTest, RefusesP90BelowOneHundredSamples) {
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_FALSE(Percentile(Ramp(99), 90).has_value());
  EXPECT_FALSE(Percentile({}, 90).has_value());
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  ASSERT_TRUE(Percentile(Ramp(100), 90).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(100), 90), 90.0);  // nearest rank
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(101), 90), 91.0);
}

TEST(PercentileTest, RefusesP99BelowOneThousandSamples) {
  EXPECT_FALSE(Percentile(Ramp(999), 99).has_value());
  ASSERT_TRUE(Percentile(Ramp(1000), 99).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1000), 99), 990.0);
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> v = Ramp(200);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(*Percentile(v, 90), 180.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(*Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(*Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  std::vector<SpanRecord> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},   // overlaps a: union of a and b is [10, 60)
      {"c", 90, 120, 0, 1},  // clipped to the parent's end
      {"a.child", 15, 25, 1, 1},
  };
  const std::vector<int64_t> self = SelfNanos(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[4], 10);
}

TEST(ResultCheckTest, AcceptsTheReferenceInAnyOrder) {
  const LineitemReference ref(2000, 42);
  std::vector<Row> answer = ref.q1();
  std::reverse(answer.begin(), answer.end());
  std::string why;
  EXPECT_TRUE(RowsMatch(ref.q1(), answer, &why)) << why;
  EXPECT_TRUE(RowsMatch(ref.q6(), ref.q6(), &why)) << why;
}

TEST(ResultCheckTest, RejectsAPerturbedAggregate) {
  const LineitemReference ref(2000, 42);
  std::vector<Row> answer = ref.q1();
  ASSERT_FALSE(answer.empty());
  Row& row = answer[0];
  row[4] = Value::Double(row[4].AsDouble() * (1 + 1e-6));  // sum_disc_price
  std::string why;
  EXPECT_FALSE(RowsMatch(ref.q1(), answer, &why));
  EXPECT_NE(why.find("row"), std::string::npos);

  answer = ref.q1();
  answer[0][9] = Value::Int(answer[0][9].AsInt() + 1);  // count_order
  EXPECT_FALSE(RowsMatch(ref.q1(), answer, &why));

  std::vector<Row> revenue = ref.q6();
  revenue[0][0] = Value::Double(revenue[0][0].AsDouble() + 0.01);
  EXPECT_FALSE(RowsMatch(ref.q6(), revenue, &why));
}

TEST(ResultCheckTest, RejectsAMissingOrExtraRow) {
  const LineitemReference ref(2000, 42);
  std::vector<Row> answer = ref.q1();
  answer.pop_back();
  std::string why;
  EXPECT_FALSE(RowsMatch(ref.q1(), answer, &why));
  EXPECT_NE(why.find("rows"), std::string::npos);
}

TEST(ResultCheckTest, PointLookupRowsCarryTheKey) {
  const LineitemReference ref(5000, 7);
  size_t found = 0;
  for (int64_t key = 1; key <= 200; ++key) {
    for (const Row& row : ref.Point(key)) {
      ASSERT_EQ(row.size(), 7u);
      EXPECT_EQ(row[1].AsInt(), key);
      ++found;
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(IngestModelTest, RollupFollowsUpsertsAndDeletes) {
  IngestModel model;
  model.Upsert(1, 1, 2.5);
  model.Upsert(2, 2, 1.0);
  model.Upsert(5, 1, 4.0);
  model.Upsert(1, 1, 3.5);  // upsert replaces
  EXPECT_EQ(model.DeleteRange(2, 4), 1u);
  const std::vector<Row> expected = {
      {Value::Int(1), Value::Int(2), Value::Double(7.5)}};
  std::string why;
  EXPECT_TRUE(RowsMatch(expected, model.Rollup(), &why)) << why;
  std::vector<Row> wrong = expected;
  wrong[0][1] = Value::Int(3);
  EXPECT_FALSE(RowsMatch(wrong, model.Rollup(), &why));
}

TEST(RawBytesTest, CountsNumbersStringsAndNulls) {
  const Row row = {Value::Int(7), Value::Double(1.5), Value::String("abc"),
                   Value::Null()};
  EXPECT_EQ(RawBytes(row), 8u + 8u + 3u);
}

}  // namespace
}  // namespace perfbench
