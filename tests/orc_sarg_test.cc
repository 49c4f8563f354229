#include "orc/sarg.h"

#include <gtest/gtest.h>

#include <limits>

#include "vec/simd.h"

namespace minihive::orc {
namespace {

ColumnStatistics IntStats(int64_t lo, int64_t hi, bool has_null = false) {
  ColumnStatistics stats;
  stats.UpdateInt(lo);
  stats.UpdateInt(hi);
  if (has_null) stats.MarkNull();
  return stats;
}

ColumnStatistics StringStats(const std::string& lo, const std::string& hi) {
  ColumnStatistics stats;
  stats.UpdateString(lo);
  stats.UpdateString(hi);
  return stats;
}

TEST(SargLeafTest, IntComparisons) {
  ColumnStatistics stats = IntStats(10, 20);
  auto eval = [&](PredicateOp op, int64_t lit) {
    return SearchArgument::EvaluateLeaf({0, op, Value::Int(lit), {}, {}},
                                        stats);
  };
  EXPECT_EQ(eval(PredicateOp::kEquals, 15), TruthValue::kMaybe);
  EXPECT_EQ(eval(PredicateOp::kEquals, 25), TruthValue::kNo);
  EXPECT_EQ(eval(PredicateOp::kEquals, 5), TruthValue::kNo);
  EXPECT_EQ(eval(PredicateOp::kLessThan, 10), TruthValue::kNo);
  EXPECT_EQ(eval(PredicateOp::kLessThan, 11), TruthValue::kMaybe);
  EXPECT_EQ(eval(PredicateOp::kLessThanEquals, 10), TruthValue::kMaybe);
  EXPECT_EQ(eval(PredicateOp::kLessThanEquals, 9), TruthValue::kNo);
  EXPECT_EQ(eval(PredicateOp::kGreaterThan, 20), TruthValue::kNo);
  EXPECT_EQ(eval(PredicateOp::kGreaterThan, 19), TruthValue::kMaybe);
  EXPECT_EQ(eval(PredicateOp::kGreaterThanEquals, 21), TruthValue::kNo);
}

TEST(SargLeafTest, NaNInDoubleUnitsIsNeverPruned) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto eval = [](const ColumnStatistics& stats, PredicateOp op, double lit) {
    return SearchArgument::EvaluateLeaf({0, op, Value::Double(lit), {}, {}},
                                        stats);
  };
  // NaN after a number leaves the bounds at that number, yet NaN != 2.5.
  ColumnStatistics hidden;
  hidden.UpdateDouble(2.5);
  hidden.UpdateDouble(nan);
  EXPECT_EQ(eval(hidden, PredicateOp::kNotEquals, 2.5), TruthValue::kMaybe);
  EXPECT_EQ(eval(hidden, PredicateOp::kGreaterThan, 2.5), TruthValue::kNo);
  // NaN first makes both bounds NaN: they say nothing about the numbers.
  ColumnStatistics first;
  first.UpdateDouble(nan);
  first.UpdateDouble(1.0);
  for (PredicateOp op : {PredicateOp::kEquals, PredicateOp::kLessThan,
                         PredicateOp::kGreaterThanEquals,
                         PredicateOp::kNotEquals}) {
    EXPECT_EQ(eval(first, op, 1.0), TruthValue::kMaybe);
  }
}

TEST(SargLeafTest, Between) {
  ColumnStatistics stats = IntStats(100, 200);
  auto between = [&](int64_t lo, int64_t hi) {
    return SearchArgument::EvaluateLeaf(
        {0, PredicateOp::kBetween, Value::Int(lo), Value::Int(hi), {}}, stats);
  };
  EXPECT_EQ(between(150, 160), TruthValue::kMaybe);
  EXPECT_EQ(between(0, 99), TruthValue::kNo);
  EXPECT_EQ(between(201, 300), TruthValue::kNo);
  EXPECT_EQ(between(0, 100), TruthValue::kMaybe);  // Touches the min.
  EXPECT_EQ(between(200, 300), TruthValue::kMaybe);  // Touches the max.
}

TEST(SargLeafTest, InList) {
  ColumnStatistics stats = IntStats(10, 20);
  LeafPredicate leaf;
  leaf.column = 0;
  leaf.op = PredicateOp::kIn;
  leaf.in_list = {Value::Int(1), Value::Int(5)};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(leaf, stats), TruthValue::kNo);
  leaf.in_list.push_back(Value::Int(15));
  EXPECT_EQ(SearchArgument::EvaluateLeaf(leaf, stats), TruthValue::kMaybe);
}

TEST(SargLeafTest, NullHandling) {
  ColumnStatistics all_null;
  all_null.MarkNull();
  // Comparisons never match an all-NULL unit.
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kEquals, Value::Int(1), {}, {}}, all_null),
            TruthValue::kNo);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kIsNull, {}, {}, {}}, all_null),
            TruthValue::kMaybe);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kIsNotNull, {}, {}, {}}, all_null),
            TruthValue::kNo);

  ColumnStatistics no_nulls = IntStats(1, 2);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kIsNull, {}, {}, {}}, no_nulls),
            TruthValue::kNo);
}

TEST(SargLeafTest, AllNullGroupSkipsInAndBetween) {
  // Regression: a group whose statistics are all-NULL (num_values == 0) must
  // be skippable by every value predicate, kIn and kBetween included — the
  // null literal probe used to bounce kIn to kMaybe before the value loop.
  ColumnStatistics all_null;
  all_null.MarkNull();
  LeafPredicate in_leaf;
  in_leaf.column = 0;
  in_leaf.op = PredicateOp::kIn;
  in_leaf.in_list = {Value::Int(1), Value::Int(2)};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(in_leaf, all_null), TruthValue::kNo);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kBetween, Value::Int(1), Value::Int(5), {}},
                all_null),
            TruthValue::kNo);

  // Statistics that carry nulls alongside real values can still match.
  ColumnStatistics with_nulls = IntStats(0, 10, /*has_null=*/true);
  in_leaf.in_list = {Value::Int(5)};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(in_leaf, with_nulls),
            TruthValue::kMaybe);
  in_leaf.in_list = {Value::Int(42)};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(in_leaf, with_nulls),
            TruthValue::kNo);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kBetween, Value::Int(3), Value::Int(4), {}},
                with_nulls),
            TruthValue::kMaybe);
}

TEST(SargLeafTest, DegenerateInAndBetweenAreNo) {
  ColumnStatistics stats = IntStats(10, 20);
  LeafPredicate empty_in;
  empty_in.column = 0;
  empty_in.op = PredicateOp::kIn;  // IN () matches nothing.
  EXPECT_EQ(SearchArgument::EvaluateLeaf(empty_in, stats), TruthValue::kNo);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(empty_in,
                                         IntStats(10, 20, /*has_null=*/true)),
            TruthValue::kNo);
  // BETWEEN with inverted bounds is an empty range.
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kBetween, Value::Int(20), Value::Int(10), {}},
                stats),
            TruthValue::kNo);
}

TEST(SargLeafTest, StringRange) {
  ColumnStatistics stats = StringStats("mango", "peach");
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kEquals, Value::String("orange"), {}, {}},
                stats),
            TruthValue::kMaybe);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kEquals, Value::String("apple"), {}, {}},
                stats),
            TruthValue::kNo);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kGreaterThan, Value::String("zebra"), {}, {}},
                stats),
            TruthValue::kNo);
}

TEST(SargLeafTest, TypeMismatchIsMaybe) {
  // Statistics of the wrong family cannot prune (stay safe).
  ColumnStatistics stats = StringStats("a", "z");
  EXPECT_EQ(SearchArgument::EvaluateLeaf(
                {0, PredicateOp::kEquals, Value::Int(3), {}, {}}, stats),
            TruthValue::kMaybe);
}

TEST(SearchArgumentTest, ConjunctionSkipsOnAnyNo) {
  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kGreaterThan, Value::Int(100), {}, {}});
  sarg.AddLeaf({1, PredicateOp::kEquals, Value::String("x"), {}, {}});
  std::vector<ColumnStatistics> stats = {IntStats(0, 50),
                                         StringStats("a", "z")};
  EXPECT_TRUE(sarg.CanSkip(stats));  // Leaf 0 is definitely false.
  stats[0] = IntStats(0, 500);
  EXPECT_FALSE(sarg.CanSkip(stats));  // Both maybes.
}

TEST(SearchArgumentTest, OutOfRangeColumnIgnored) {
  SearchArgument sarg;
  sarg.AddLeaf({5, PredicateOp::kEquals, Value::Int(1), {}, {}});
  std::vector<ColumnStatistics> stats = {IntStats(0, 1)};
  EXPECT_FALSE(sarg.CanSkip(stats));
}

// ------------------------------------------------------------------
// Row-level (phase-1 late materialization) evaluation.

std::vector<uint8_t> RowMask(const LeafPredicate& leaf, TypeKind kind,
                             const ColumnSlice& slice) {
  std::vector<uint8_t> mask(slice.rows, 1);
  std::vector<uint8_t> scratch;
  SearchArgument::EvaluateLeafRows(leaf, kind, slice, mask.data(), &scratch);
  return mask;
}

TEST(SargRowTest, IntComparisonsMatchScalarTruthOnBothDispatchArms) {
  std::vector<int64_t> vals;
  for (int i = 0; i < 100; ++i) vals.push_back((i * 37) % 100);
  ColumnSlice slice;
  slice.longs = vals.data();
  slice.rows = 100;
  LeafPredicate leaf = {0, PredicateOp::kLessThan, Value::Int(50), {}, {}};
  ASSERT_TRUE(SearchArgument::LeafRowEvaluable(leaf, TypeKind::kBigInt));
  for (bool enabled : {false, true}) {
    simd::SetEnabled(enabled);
    std::vector<uint8_t> mask = RowMask(leaf, TypeKind::kBigInt, slice);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(mask[i] != 0, vals[i] < 50) << "row " << i;
    }
  }
  simd::SetEnabled(true);
}

TEST(SargRowTest, NullRowsRejectedByComparisonsKeptByIsNull) {
  // Packed layout: present says which rows are non-null; values hold only
  // the non-null rows in order.
  std::vector<uint8_t> present = {1, 0, 1, 0, 1, 1};
  std::vector<int64_t> vals = {10, 20, 30, 40};
  ColumnSlice slice;
  slice.present = present.data();
  slice.longs = vals.data();
  slice.rows = 6;

  LeafPredicate lt = {0, PredicateOp::kLessThan, Value::Int(25), {}, {}};
  std::vector<uint8_t> mask = RowMask(lt, TypeKind::kBigInt, slice);
  std::vector<uint8_t> expected = {1, 0, 1, 0, 0, 0};
  EXPECT_EQ(mask, expected);

  std::vector<uint8_t> is_null =
      RowMask({0, PredicateOp::kIsNull, {}, {}, {}}, TypeKind::kBigInt, slice);
  expected = {0, 1, 0, 1, 0, 0};
  EXPECT_EQ(is_null, expected);

  std::vector<uint8_t> not_null = RowMask(
      {0, PredicateOp::kIsNotNull, {}, {}, {}}, TypeKind::kBigInt, slice);
  expected = {1, 0, 1, 0, 1, 1};
  EXPECT_EQ(not_null, expected);
}

TEST(SargRowTest, MaskIsAndedNotOverwritten) {
  std::vector<int64_t> vals = {1, 2, 3, 4};
  ColumnSlice slice;
  slice.longs = vals.data();
  slice.rows = 4;
  std::vector<uint8_t> mask = {0, 1, 0, 1};  // Rows 0 and 2 already dead.
  std::vector<uint8_t> scratch;
  SearchArgument::EvaluateLeafRows(
      {0, PredicateOp::kGreaterThanEquals, Value::Int(0), {}, {}},
      TypeKind::kBigInt, slice, mask.data(), &scratch);
  std::vector<uint8_t> expected = {0, 1, 0, 1};
  EXPECT_EQ(mask, expected);
}

TEST(SargRowTest, DoubleBetweenAndStringEquality) {
  std::vector<double> doubles = {0.5, 1.5, 2.5, 3.5};
  ColumnSlice dslice;
  dslice.doubles = doubles.data();
  dslice.rows = 4;
  LeafPredicate between = {0, PredicateOp::kBetween, Value::Double(1.0),
                           Value::Double(3.0), {}};
  ASSERT_TRUE(SearchArgument::LeafRowEvaluable(between, TypeKind::kDouble));
  std::vector<uint8_t> mask = RowMask(between, TypeKind::kDouble, dslice);
  std::vector<uint8_t> expected = {0, 1, 1, 0};
  EXPECT_EQ(mask, expected);

  std::vector<std::string_view> strs = {"apple", "banana", "cherry"};
  ColumnSlice sslice;
  sslice.strings = strs.data();
  sslice.rows = 3;
  LeafPredicate eq = {0, PredicateOp::kEquals, Value::String("banana"), {},
                      {}};
  ASSERT_TRUE(SearchArgument::LeafRowEvaluable(eq, TypeKind::kString));
  mask = RowMask(eq, TypeKind::kString, sslice);
  expected = {0, 1, 0};
  EXPECT_EQ(mask, expected);

  LeafPredicate in;
  in.column = 0;
  in.op = PredicateOp::kIn;
  in.in_list = {Value::String("apple"), Value::String("cherry")};
  ASSERT_TRUE(SearchArgument::LeafRowEvaluable(in, TypeKind::kString));
  mask = RowMask(in, TypeKind::kString, sslice);
  expected = {1, 0, 1};
  EXPECT_EQ(mask, expected);
}

TEST(SargRowTest, RowEvaluabilityRequiresExactTypeFamilies) {
  // int col + double literal would change comparison semantics: refuse.
  EXPECT_FALSE(SearchArgument::LeafRowEvaluable(
      {0, PredicateOp::kLessThan, Value::Double(1.5), {}, {}},
      TypeKind::kBigInt));
  // double col + int literal converts like the engine does: allowed.
  EXPECT_TRUE(SearchArgument::LeafRowEvaluable(
      {0, PredicateOp::kLessThan, Value::Int(2), {}, {}}, TypeKind::kDouble));
  // String BETWEEN stays group-level-only.
  EXPECT_FALSE(SearchArgument::LeafRowEvaluable(
      {0, PredicateOp::kBetween, Value::String("a"), Value::String("b"), {}},
      TypeKind::kString));
  // Complex types are never row-evaluable.
  EXPECT_FALSE(SearchArgument::LeafRowEvaluable(
      {0, PredicateOp::kIsNull, {}, {}, {}}, TypeKind::kArray));
}

TEST(ColumnStatisticsTest, SerializationRoundTrip) {
  ColumnStatistics stats;
  stats.UpdateInt(-5);
  stats.UpdateInt(100);
  stats.UpdateString("alpha");
  stats.UpdateString("omega");
  stats.UpdateDouble(2.5);
  stats.MarkNull();
  std::string bytes;
  stats.Serialize(&bytes);
  ByteReader reader(bytes);
  ColumnStatistics restored;
  ASSERT_TRUE(ColumnStatistics::Deserialize(&reader, &restored).ok());
  EXPECT_EQ(restored.num_values(), stats.num_values());
  EXPECT_TRUE(restored.has_null());
  EXPECT_EQ(restored.int_min(), -5);
  EXPECT_EQ(restored.int_max(), 100);
  EXPECT_EQ(restored.string_min(), "alpha");
  EXPECT_EQ(restored.string_max(), "omega");
  EXPECT_DOUBLE_EQ(restored.double_min(), 2.5);
}

TEST(ColumnStatisticsTest, MergeCombinesRangesAndSums) {
  ColumnStatistics a, b;
  a.UpdateInt(1);
  a.UpdateInt(10);
  b.UpdateInt(-3);
  b.UpdateInt(7);
  b.MarkNull();
  a.Merge(b);
  EXPECT_EQ(a.int_min(), -3);
  EXPECT_EQ(a.int_max(), 10);
  EXPECT_EQ(a.int_sum(), 1 + 10 - 3 + 7);
  EXPECT_EQ(a.num_values(), 4u);
  EXPECT_TRUE(a.has_null());
}

}  // namespace
}  // namespace minihive::orc
