// Predicate placement through joins: every WHERE conjunct moves below the
// joins to the lowest input that supplies its columns, except over the
// null-supplying side of a LEFT OUTER join. Results are checked against a
// nested-loop evaluation of the inserted rows written with std containers
// (it shares no code with the planner), under every combination of map-join
// conversion, the Correlation Optimizer and vectorization. Plan shapes are
// checked on small joins and on the TPC-DS Q27 and Q95 queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "datagen/tpcds.h"
#include "ql/analyzer.h"
#include "ql/driver.h"
#include "ql/optimizer.h"
#include "ql/parser.h"

namespace minihive::ql {
namespace {

using exec::ExprKind;
using exec::OpDesc;
using exec::OpDescPtr;
using exec::OpKind;

// ---------------------------------------------------------------- data

// f(id, a, b, v, s), d1(a, x, name), d2(b, y), d3(x, z), r(a, w).
std::vector<Row> FactRows() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 60; ++i) {
    rows.push_back({Value::Int(i),
                    i % 7 == 0 ? Value::Null() : Value::Int(i % 9),
                    i % 11 == 0 ? Value::Null() : Value::Int(i % 5),
                    i % 13 == 0 ? Value::Null() : Value::Double(i * 1.5),
                    Value::String("s" + std::to_string(i % 4))});
  }
  return rows;
}

std::vector<Row> D1Rows() {
  std::vector<Row> rows;
  for (int64_t a = 0; a < 10; ++a) {
    rows.push_back({Value::Int(a), a == 5 ? Value::Null() : Value::Int(a % 4),
                    Value::String("n" + std::to_string(a))});
  }
  rows.push_back({Value::Int(3), Value::Int(1), Value::String("n3b")});
  rows.push_back({Value::Null(), Value::Int(2), Value::String("nnull")});
  return rows;
}

std::vector<Row> D2Rows() {
  std::vector<Row> rows;
  for (int64_t b = 0; b < 6; ++b) {
    rows.push_back({Value::Int(b), b == 2 ? Value::Null() : Value::Int(b % 3)});
  }
  rows.push_back({Value::Null(), Value::Int(0)});
  return rows;
}

std::vector<Row> D3Rows() {
  std::vector<Row> rows;
  for (int64_t x = 0; x < 4; ++x) {
    rows.push_back({Value::Int(x), Value::String(x == 1 ? "q"
                                                        : "z" + std::to_string(x))});
  }
  rows.push_back({Value::Int(2), Value::Null()});
  return rows;
}

std::vector<Row> RRows() {
  return {{Value::Int(0), Value::Int(0)},  {Value::Int(2), Value::Int(1)},
          {Value::Int(2), Value::Null()},  {Value::Int(4), Value::Null()},
          {Value::Int(6), Value::Int(3)},  {Value::Int(8), Value::Int(4)},
          {Value::Null(), Value::Int(5)}};
}

std::string SqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_string()) return "'" + v.AsString() + "'";
  if (v.is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v.AsDouble());
    return buf;
  }
  return v.ToString();
}

// ---------------------------------------------------------------- reference

/// SQL's "the predicate is TRUE": a comparison with a NULL operand is not.
bool Cmp(const Value& a, const Value& b, const std::function<bool(int)>& ok) {
  return !a.is_null() && !b.is_null() && ok(a.Compare(b));
}
bool Eq(const Value& a, const Value& b) {
  return Cmp(a, b, [](int c) { return c == 0; });
}
bool Ne(const Value& a, const Value& b) {
  return Cmp(a, b, [](int c) { return c != 0; });
}
bool Lt(const Value& a, const Value& b) {
  return Cmp(a, b, [](int c) { return c < 0; });
}
bool Gt(const Value& a, const Value& b) {
  return Cmp(a, b, [](int c) { return c > 0; });
}
bool Ge(const Value& a, const Value& b) {
  return Cmp(a, b, [](int c) { return c >= 0; });
}

Value I(int64_t v) { return Value::Int(v); }
Value S(const char* v) { return Value::String(v); }

/// Joins every left row with every right row `on` accepts; a LEFT OUTER
/// join pads each unmatched left row with `right_width` NULLs.
std::vector<Row> NestedLoopJoin(
    const std::vector<Row>& left, const std::vector<Row>& right,
    size_t right_width, bool left_outer,
    const std::function<bool(const Row&, const Row&)>& on) {
  std::vector<Row> out;
  for (const Row& l : left) {
    bool matched = false;
    for (const Row& r : right) {
      if (!on(l, r)) continue;
      matched = true;
      Row joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      out.push_back(std::move(joined));
    }
    if (!matched && left_outer) {
      Row joined = l;
      joined.insert(joined.end(), right_width, Value::Null());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

std::string Render(const Row& row) {
  std::string s;
  for (const Value& v : row) s += v.ToString() + "|";
  return s;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// WHERE then projection over joined rows.
std::vector<std::string> Expected(const std::vector<Row>& joined,
                                  const std::function<bool(const Row&)>& where,
                                  const std::vector<int>& project) {
  std::vector<std::string> out;
  for (const Row& row : joined) {
    if (!where(row)) continue;
    Row projected;
    for (int c : project) projected.push_back(row[c]);
    out.push_back(Render(projected));
  }
  return Sorted(std::move(out));
}

// ---------------------------------------------------------------- plans

std::vector<OpDescPtr> AllOps(const PlannedQuery& plan) {
  std::vector<OpDescPtr> out;
  std::set<const OpDesc*> seen;
  std::vector<OpDescPtr> stack(plan.roots.begin(), plan.roots.end());
  while (!stack.empty()) {
    OpDescPtr op = stack.back();
    stack.pop_back();
    if (!seen.insert(op.get()).second) continue;
    out.push_back(op);
    for (const OpDescPtr& child : op->children) stack.push_back(child);
  }
  return out;
}

/// The Filter ops whose predicate prints `text` somewhere.
std::vector<const OpDesc*> FiltersMentioning(const PlannedQuery& plan,
                                             const std::string& text) {
  std::vector<const OpDesc*> out;
  for (const OpDescPtr& op : AllOps(plan)) {
    if (op->kind == OpKind::kFilter &&
        op->predicate->ToString().find(text) != std::string::npos) {
      out.push_back(op.get());
    }
  }
  return out;
}

class FilterPlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    Load("f", "id INT, a INT, b INT, v DOUBLE, s STRING", FactRows());
    Load("d1", "a INT, x INT, name STRING", D1Rows());
    Load("d2", "b INT, y INT", D2Rows());
    Load("d3", "x INT, z STRING", D3Rows());
    Load("r", "a INT, w INT", RRows());
  }

  void Load(const std::string& table, const std::string& columns,
            const std::vector<Row>& rows) {
    Driver driver(fs_.get(), catalog_.get(), DriverOptions());
    ASSERT_TRUE(
        driver.Execute("CREATE TABLE " + table + " (" + columns + ")").ok());
    std::string values;
    for (const Row& row : rows) {
      values += values.empty() ? "(" : ", (";
      for (size_t c = 0; c < row.size(); ++c) {
        values += (c == 0 ? "" : ", ") + SqlLiteral(row[c]);
      }
      values += ")";
    }
    auto insert = driver.Execute("INSERT INTO " + table + " VALUES " + values);
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  }

  /// Runs `sql` under all eight combinations of map-join conversion (with
  /// Map-only merging), the Correlation Optimizer and vectorization.
  void ExpectEverywhere(const std::string& sql,
                        const std::vector<std::string>& expected) {
    for (int config = 0; config < 8; ++config) {
      DriverOptions options;
      options.num_workers = 2;
      options.mapjoin_conversion = (config & 1) != 0;
      options.merge_maponly_jobs = (config & 1) != 0;
      options.correlation_optimizer = (config & 2) != 0;
      options.vectorized_execution = (config & 4) != 0;
      Driver driver(fs_.get(), catalog_.get(), options);
      auto result = driver.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      std::vector<std::string> got;
      for (const Row& row : result->rows) got.push_back(Render(row));
      EXPECT_EQ(Sorted(std::move(got)), expected)
          << sql << " (mapjoin=" << options.mapjoin_conversion
          << " co=" << options.correlation_optimizer
          << " vectorized=" << options.vectorized_execution << ")";
    }
  }

  /// Analyzer + pushdown only: the plan the placement rewrite leaves.
  PlannedQuery Placed(const std::string& sql) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok()) << ast.status().ToString();
    auto plan = Analyzer(catalog_.get()).Analyze(**ast, "/tmp/placement");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(PushdownIntoScans(&*plan, true).ok());
    return std::move(plan).ValueOrDie();
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

// f ++ d1: f at 0..4, d1 at 5..7.
std::vector<Row> FJoinD1() {
  return NestedLoopJoin(FactRows(), D1Rows(), 3, false,
                        [](const Row& l, const Row& r) { return Eq(l[1], r[0]); });
}
// ++ d2 at 8..9 (on f.b).
std::vector<Row> FJoinD1D2() {
  return NestedLoopJoin(FJoinD1(), D2Rows(), 2, false,
                        [](const Row& l, const Row& r) { return Eq(l[2], r[0]); });
}
// ++ d3 at 10..11 (on d1.x).
std::vector<Row> FJoinD1D2D3() {
  return NestedLoopJoin(FJoinD1D2(), D3Rows(), 2, false,
                        [](const Row& l, const Row& r) { return Eq(l[6], r[0]); });
}
// f LEFT OUTER JOIN r: r at 5..6.
std::vector<Row> FLeftR() {
  return NestedLoopJoin(FactRows(), RRows(), 2, true,
                        [](const Row& l, const Row& r) { return Eq(l[1], r[0]); });
}

TEST_F(FilterPlacementTest, InnerTwoWay) {
  ExpectEverywhere(
      "SELECT f.id, d1.name FROM f JOIN d1 ON f.a = d1.a "
      "WHERE d1.x > 1 AND f.v < 60",
      Expected(FJoinD1(),
               [](const Row& r) { return Gt(r[6], I(1)) && Lt(r[3], I(60)); },
               {0, 7}));
}

TEST_F(FilterPlacementTest, InnerThreeWay) {
  ExpectEverywhere(
      "SELECT f.id, d1.name, d2.y FROM f JOIN d1 ON f.a = d1.a "
      "JOIN d2 ON f.b = d2.b WHERE d2.y = 1 AND d1.x < 3 AND f.s != 's2'",
      Expected(FJoinD1D2(),
               [](const Row& r) {
                 return Eq(r[9], I(1)) && Lt(r[6], I(3)) && Ne(r[4], S("s2"));
               },
               {0, 7, 9}));
}

TEST_F(FilterPlacementTest, InnerFourWay) {
  ExpectEverywhere(
      "SELECT f.id, d3.z FROM f JOIN d1 ON f.a = d1.a JOIN d2 ON f.b = d2.b "
      "JOIN d3 ON d1.x = d3.x WHERE d3.z != 'q' AND d2.y > 0 AND f.v > 3",
      Expected(FJoinD1D2D3(),
               [](const Row& r) {
                 return Ne(r[11], S("q")) && Gt(r[9], I(0)) && Gt(r[3], I(3));
               },
               {0, 11}));
}

TEST_F(FilterPlacementTest, InnerFiveWay) {
  std::vector<Row> joined = NestedLoopJoin(
      FJoinD1D2D3(), RRows(), 2, false,
      [](const Row& l, const Row& r) { return Eq(l[1], r[0]); });
  ExpectEverywhere(
      "SELECT f.id, r.w, d3.z FROM f JOIN d1 ON f.a = d1.a "
      "JOIN d2 ON f.b = d2.b JOIN d3 ON d1.x = d3.x JOIN r ON f.a = r.a "
      "WHERE r.w >= 1 AND d3.z != 'q' AND d2.y > 0 AND f.v > 3",
      Expected(joined,
               [](const Row& r) {
                 return Ge(r[13], I(1)) && Ne(r[11], S("q")) &&
                        Gt(r[9], I(0)) && Gt(r[3], I(3));
               },
               {0, 13, 11}));
}

TEST_F(FilterPlacementTest, LeftOuterPreservedSide) {
  ExpectEverywhere(
      "SELECT f.id, r.w FROM f LEFT OUTER JOIN r ON f.a = r.a "
      "WHERE f.v > 20 AND f.s = 's1'",
      Expected(FLeftR(),
               [](const Row& r) { return Gt(r[3], I(20)) && Eq(r[4], S("s1")); },
               {0, 6}));
  // The preserved side's conjuncts leave the join's output for f's scan.
  PlannedQuery plan = Placed(
      "SELECT f.id, r.w FROM f LEFT OUTER JOIN r ON f.a = r.a "
      "WHERE f.v > 20 AND f.s = 's1'");
  for (const OpDescPtr& op : AllOps(plan)) {
    if (op->kind != OpKind::kJoin) continue;
    ASSERT_EQ(op->children.size(), 1u);
    EXPECT_NE(op->children[0]->kind, OpKind::kFilter);
  }
  EXPECT_EQ(FiltersMentioning(plan, "> 20").size(), 1u);
}

TEST_F(FilterPlacementTest, AntiJoinStaysAboveOuterJoin) {
  const std::string anti =
      "SELECT f.id FROM f LEFT OUTER JOIN r ON f.a = r.a WHERE r.a IS NULL";
  ExpectEverywhere(anti, Expected(FLeftR(),
                                  [](const Row& r) { return r[5].is_null(); },
                                  {0}));
  ExpectEverywhere(
      "SELECT f.id, r.w FROM f LEFT OUTER JOIN r ON f.a = r.a "
      "WHERE r.w IS NULL",
      Expected(FLeftR(), [](const Row& r) { return r[6].is_null(); }, {0, 6}));
  ExpectEverywhere(
      "SELECT f.id, r.w FROM f LEFT OUTER JOIN r ON f.a = r.a WHERE r.w > 0",
      Expected(FLeftR(), [](const Row& r) { return Gt(r[6], I(0)); }, {0, 6}));
  // The conjunct over the null-supplying side stays the join's child.
  PlannedQuery plan = Placed(anti);
  std::vector<const OpDesc*> filters = FiltersMentioning(plan, "IS NULL");
  ASSERT_EQ(filters.size(), 1u);
  ASSERT_EQ(filters[0]->parents.size(), 1u);
  EXPECT_EQ(filters[0]->parents[0]->kind, OpKind::kJoin);
}

TEST_F(FilterPlacementTest, OuterThenInnerJoin) {
  std::vector<Row> joined = NestedLoopJoin(
      FLeftR(), D1Rows(), 3, false,
      [](const Row& l, const Row& r) { return Eq(l[1], r[0]); });
  ExpectEverywhere(
      "SELECT f.id, r.w, d1.name FROM f LEFT OUTER JOIN r ON f.a = r.a "
      "JOIN d1 ON f.a = d1.a WHERE r.w IS NULL AND d1.x > 0 AND f.id > 4",
      Expected(joined,
               [](const Row& r) {
                 return r[6].is_null() && Gt(r[8], I(0)) && Gt(r[0], I(4));
               },
               {0, 6, 9}));
}

TEST_F(FilterPlacementTest, CrossSideConjunctStaysAtLowestCommonJoin) {
  const std::string sql =
      "SELECT f.id, d1.x, d2.y FROM f JOIN d1 ON f.a = d1.a "
      "JOIN d2 ON f.b = d2.b WHERE f.v > d1.x * 10 AND d1.x + d2.y > 1";
  ExpectEverywhere(
      sql, Expected(FJoinD1D2(),
                    [](const Row& r) {
                      if (r[6].is_null()) return false;
                      const bool sum_ok =
                          !r[9].is_null() && r[6].AsInt() + r[9].AsInt() > 1;
                      return Gt(r[3], I(r[6].AsInt() * 10)) && sum_ok;
                    },
                    {0, 6, 9}));
  // f.v > d1.x * 10 needs f and d1: it sits right after f JOIN d1, below
  // the join with d2; d1.x + d2.y > 1 needs the top join's both inputs.
  PlannedQuery plan = Placed(sql);
  std::vector<const OpDesc*> lower = FiltersMentioning(plan, "* 10");
  ASSERT_EQ(lower.size(), 1u);
  ASSERT_EQ(lower[0]->parents.size(), 1u);
  const OpDesc* lower_join = lower[0]->parents[0];
  EXPECT_EQ(lower_join->kind, OpKind::kJoin);
  std::vector<const OpDesc*> upper = FiltersMentioning(plan, " + ");
  ASSERT_EQ(upper.size(), 1u);
  ASSERT_EQ(upper[0]->parents.size(), 1u);
  EXPECT_EQ(upper[0]->parents[0]->kind, OpKind::kJoin);
  EXPECT_NE(upper[0]->parents[0], lower_join);
}

TEST_F(FilterPlacementTest, ConstantConjunctsStay) {
  ExpectEverywhere(
      "SELECT f.id FROM f JOIN d1 ON f.a = d1.a "
      "WHERE 1 = 1 AND d1.name != 'n4'",
      Expected(FJoinD1(), [](const Row& r) { return Ne(r[7], S("n4")); },
               {0}));
  ExpectEverywhere(
      "SELECT f.id FROM f JOIN d1 ON f.a = d1.a WHERE 1 = 0 AND f.id > 3",
      {});
  PlannedQuery plan = Placed(
      "SELECT f.id FROM f JOIN d1 ON f.a = d1.a WHERE 1 = 0 AND f.id > 3");
  std::vector<const OpDesc*> constant = FiltersMentioning(plan, "(1 = 0)");
  ASSERT_EQ(constant.size(), 1u);
  EXPECT_EQ(constant[0]->parents[0]->kind, OpKind::kJoin);
}

TEST_F(FilterPlacementTest, SubquerySideFilterStopsAtItsSink) {
  std::map<int64_t, int64_t> counts;
  std::vector<Row> groups;
  for (const Row& row : D1Rows()) {
    if (!row[0].is_null()) ++counts[row[0].AsInt()];
  }
  for (const auto& [a, cnt] : counts) groups.push_back({I(a), I(cnt)});
  groups.push_back({Value::Null(), I(1)});
  std::vector<Row> joined = NestedLoopJoin(
      FactRows(), groups, 2, false,
      [](const Row& l, const Row& r) { return Eq(l[1], r[0]); });
  const std::string sql =
      "SELECT f.id, g.cnt FROM f JOIN "
      "(SELECT a AS ga, COUNT(*) AS cnt FROM d1 GROUP BY a) g "
      "ON f.a = g.ga WHERE g.cnt > 1 AND f.v > 5";
  ExpectEverywhere(
      sql, Expected(joined,
                    [](const Row& r) { return Gt(r[6], I(1)) && Gt(r[3], I(5)); },
                    {0, 6}));
  // g.cnt > 1 moves out of the join's output but not into the subquery:
  // it lands after the subquery's Select, right before its ReduceSink.
  PlannedQuery plan = Placed(sql);
  std::vector<const OpDesc*> cnt = FiltersMentioning(plan, "> 1)");
  ASSERT_EQ(cnt.size(), 1u);
  EXPECT_EQ(cnt[0]->parents[0]->kind, OpKind::kSelect);
  EXPECT_EQ(cnt[0]->children[0]->kind, OpKind::kReduceSink);
}

TEST_F(FilterPlacementTest, ConjunctOverJoinKey) {
  ExpectEverywhere(
      "SELECT f.id, d1.a FROM f JOIN d1 ON f.a = d1.a "
      "WHERE d1.a >= 3 AND f.a != 8",
      Expected(FJoinD1(),
               [](const Row& r) { return Ge(r[5], I(3)) && Ne(r[1], I(8)); },
               {0, 5}));
}

// ---------------------------------------------------------------- TPC-DS

const char kQ27[] =
    "SELECT i_item_id, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS agg2, "
    "       AVG(ss_coupon_amt) AS agg3, AVG(ss_sales_price) AS agg4 "
    "FROM tpcds_store_sales "
    "JOIN tpcds_customer_demographics "
    "  ON tpcds_store_sales.ss_cdemo_sk = "
    "     tpcds_customer_demographics.cd_demo_sk "
    "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
    "                       tpcds_date_dim.d_date_sk "
    "JOIN tpcds_store ON tpcds_store_sales.ss_store_sk = "
    "                    tpcds_store.s_store_sk "
    "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
    "WHERE cd_gender = 'M' AND cd_marital_status = 'S' "
    "  AND cd_education_status = 'College' AND d_year = 2000 "
    "GROUP BY i_item_id ORDER BY i_item_id";

const char kQ95[] =
    "SELECT ss.ss_store_sk AS store, COUNT(*) AS cnt, "
    "       SUM(ss.ss_net_profit) AS profit "
    "FROM tpcds_store_sales ss "
    "JOIN tpcds_store ON ss.ss_store_sk = tpcds_store.s_store_sk "
    "JOIN (SELECT s.ss_ticket_number AS tn, AVG(s.ss_net_profit) AS ap "
    "      FROM tpcds_store_sales s GROUP BY s.ss_ticket_number) agg "
    "  ON ss.ss_ticket_number = agg.tn "
    "JOIN tpcds_store_sales ss2 ON agg.tn = ss2.ss_ticket_number "
    "WHERE ss.ss_net_profit > agg.ap AND ss2.ss_quantity > 97 "
    "  AND s_state != 'ZZ' "
    "GROUP BY ss.ss_store_sk";

class TpcdsPlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    datagen::TpcdsOptions options;
    options.store_sales_rows = 6000;
    options.format = formats::FormatKind::kOrcFile;
    ASSERT_TRUE(datagen::LoadTpcds(catalog_.get(), "tpcds", options).ok());
    // Every dimension qualifies for a map join, and all four fit one
    // merged Map phase; the fact table does not qualify.
    for (const char* dim : {"tpcds_item", "tpcds_store",
                            "tpcds_customer_demographics", "tpcds_date_dim"}) {
      threshold_ += Bytes(dim);
    }
    ASSERT_GT(Bytes("tpcds_store_sales"), threshold_);
  }

  uint64_t Bytes(const std::string& table) {
    auto desc = catalog_->GetTable(table);
    EXPECT_TRUE(desc.ok());
    return catalog_->TableBytes(**desc);
  }

  /// The §5/§6 switches the join_shuffle benchmark runs with.
  DriverOptions AllOn() const {
    DriverOptions options;
    options.num_workers = 2;
    options.mapjoin_conversion = true;
    options.mapjoin_threshold_bytes = threshold_;
    options.merge_maponly_jobs = true;
    options.correlation_optimizer = true;
    options.vectorized_execution = true;
    return options;
  }

  /// The optimizer passes in the Driver's order.
  PlannedQuery Optimized(const std::string& sql) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok()) << ast.status().ToString();
    auto plan = Analyzer(catalog_.get()).Analyze(**ast, "/tmp/placement");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(PushdownIntoScans(&*plan, true).ok());
    EXPECT_TRUE(ConvertMapJoins(&*plan, catalog_.get(), threshold_).ok());
    EXPECT_TRUE(MergeMapOnlyJobs(&*plan, threshold_).ok());
    EXPECT_TRUE(ApplyCorrelationOptimizer(&*plan).ok());
    return std::move(plan).ValueOrDie();
  }

  /// Build filter of the map-join small side over `table`, as text.
  static std::string BuildFilter(const PlannedQuery& plan,
                                 const std::string& table) {
    for (const OpDescPtr& op : AllOps(plan)) {
      if (op->kind != OpKind::kMapJoin) continue;
      for (const auto& side : op->mapjoin_small_sides) {
        if (side.table_name != table) continue;
        return side.build_filter == nullptr ? "<none>"
                                            : side.build_filter->ToString();
      }
    }
    return "<not a small side>";
  }

  /// Every config's answer equals the plain reduce-join plan's.
  void ExpectSameAnswers(const char* sql) {
    DriverOptions plain;
    plain.num_workers = 2;
    plain.mapjoin_conversion = false;
    plain.merge_maponly_jobs = false;
    auto reference = Driver(fs_.get(), catalog_.get(), plain).Execute(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    std::vector<std::string> expected;
    for (const Row& row : reference->rows) expected.push_back(Render(row));
    EXPECT_FALSE(expected.empty());
    auto optimized = Driver(fs_.get(), catalog_.get(), AllOn()).Execute(sql);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    std::vector<std::string> got;
    for (const Row& row : optimized->rows) got.push_back(Render(row));
    EXPECT_EQ(Sorted(std::move(got)), Sorted(std::move(expected)));
  }

  int Jobs(const char* sql) {
    auto plan = Driver(fs_.get(), catalog_.get(), AllOn()).Explain(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan->num_jobs : -1;
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
  uint64_t threshold_ = 0;
};

TEST_F(TpcdsPlacementTest, Q27FiltersBecomeBuildFilters) {
  PlannedQuery plan = Optimized(kQ27);
  const std::string cd = BuildFilter(plan, "tpcds_customer_demographics");
  EXPECT_NE(cd.find("= M)"), std::string::npos) << cd;
  EXPECT_NE(cd.find("= S)"), std::string::npos) << cd;
  EXPECT_NE(cd.find("= College)"), std::string::npos) << cd;
  const std::string date = BuildFilter(plan, "tpcds_date_dim");
  EXPECT_NE(date.find("= 2000)"), std::string::npos) << date;
  // No Filter is left on the fact pipeline after the first map join.
  for (const OpDescPtr& op : AllOps(plan)) {
    if (op->kind != OpKind::kMapJoin) continue;
    for (const OpDesc* cur = op.get(); cur->kind != OpKind::kReduceSink &&
                                       cur->children.size() == 1;) {
      cur = cur->children[0].get();
      EXPECT_NE(cur->kind, OpKind::kFilter) << cur->DebugString();
    }
  }
  EXPECT_EQ(Jobs(kQ27), 2);
  ExpectSameAnswers(kQ27);
}

TEST_F(TpcdsPlacementTest, Q95FiltersReachScanBuildSideAndLowestJoin) {
  PlannedQuery plan = Optimized(kQ95);
  // ss2.ss_quantity > 97 runs in ss2's scan chain and became a SARG leaf.
  std::vector<const OpDesc*> quantity = FiltersMentioning(plan, "> 97)");
  ASSERT_EQ(quantity.size(), 1u);
  const OpDesc* scan = quantity[0];
  while (scan->kind == OpKind::kFilter) scan = scan->parents[0];
  ASSERT_EQ(scan->kind, OpKind::kTableScan);
  EXPECT_EQ(scan->table_name, "tpcds_store_sales");
  ASSERT_NE(scan->sarg, nullptr);
  bool has_leaf = false;
  for (const orc::LeafPredicate& leaf : scan->sarg->leaves()) {
    has_leaf |= leaf.op == orc::PredicateOp::kGreaterThan && leaf.column == 5 &&
                leaf.literal.Compare(Value::Int(97)) == 0;
  }
  EXPECT_TRUE(has_leaf);
  // s_state != 'ZZ' filters the store table as it is built.
  const std::string store = BuildFilter(plan, "tpcds_store");
  EXPECT_NE(store.find("!= ZZ)"), std::string::npos) << store;
  // ss.ss_net_profit > agg.ap sits right after the ss-agg join, below the
  // join with ss2 (the one ss2's filtered rows feed).
  const OpDesc* ss2_join = quantity[0];
  while (ss2_join->kind != OpKind::kJoin && !ss2_join->children.empty()) {
    ss2_join = ss2_join->children[0].get();
  }
  ASSERT_EQ(ss2_join->kind, OpKind::kJoin);
  int cross_side = 0;
  for (const OpDescPtr& op : AllOps(plan)) {
    if (op->kind != OpKind::kFilter) continue;
    const exec::Expr& p = *op->predicate;
    if (p.kind() == ExprKind::kGt &&
        p.children()[0]->kind() == ExprKind::kColumn &&
        p.children()[1]->kind() == ExprKind::kColumn) {
      ++cross_side;
      ASSERT_EQ(op->parents.size(), 1u);
      EXPECT_EQ(op->parents[0]->kind, OpKind::kJoin);
      EXPECT_NE(op->parents[0], ss2_join);
    }
  }
  EXPECT_EQ(cross_side, 1);
  EXPECT_EQ(Jobs(kQ95), 2);
  ExpectSameAnswers(kQ95);
}

}  // namespace
}  // namespace minihive::ql
