#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "datagen/loader.h"
#include "datagen/tpch.h"
#include "ql/driver.h"

namespace minihive::vec {
namespace {

using ql::Catalog;
using ql::Driver;
using ql::DriverOptions;
using ql::QueryResult;

/// TPC-H Q1 analogue over the generated lineitem (shipdate is a day
/// number): one predicate, eight aggregates, grouped by two low-cardinality
/// string columns — the paper's Figure 12 workload.
const char kQ1[] =
    "SELECT l_returnflag, l_linestatus, "
    "  SUM(l_quantity) AS sum_qty, "
    "  SUM(l_extendedprice) AS sum_base_price, "
    "  SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "  SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "  AVG(l_quantity) AS avg_qty, "
    "  AVG(l_extendedprice) AS avg_price, "
    "  AVG(l_discount) AS avg_disc, "
    "  COUNT(*) AS count_order "
    "FROM tpch_lineitem WHERE l_shipdate <= 10471 "
    "GROUP BY l_returnflag, l_linestatus";

/// TPC-H Q6 analogue: four predicates, one aggregate.
const char kQ6[] =
    "SELECT SUM(l_extendedprice * l_discount) AS revenue "
    "FROM tpch_lineitem "
    "WHERE l_shipdate BETWEEN 8766 AND 9131 "
    "  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

class VecPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new dfs::FileSystem();
    catalog_ = new Catalog(fs_);
    datagen::TpchOptions options;
    options.lineitem_rows = 60000;
    options.orders_rows = 1000;
    options.format = formats::FormatKind::kOrcFile;
    ASSERT_TRUE(datagen::LoadTpch(catalog_, "tpch", options).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete fs_;
  }

  QueryResult MustExecute(const std::string& sql, bool vectorized) {
    DriverOptions options;
    options.vectorized_execution = vectorized;
    Driver driver(fs_, catalog_, options);
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return QueryResult();
    return std::move(result).ValueOrDie();
  }

  static std::vector<std::string> Canonical(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) {
        // Round doubles so row/vector summation-order differences in the
        // same group do not flip the comparison.
        if (v.is_double()) {
          char buf[64];
          snprintf(buf, sizeof(buf), "%.4f", v.AsDouble());
          s += buf;
        } else {
          s += v.ToString();
        }
        s += "|";
      }
      rows.push_back(s);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static dfs::FileSystem* fs_;
  static Catalog* catalog_;
};

dfs::FileSystem* VecPipelineTest::fs_ = nullptr;
Catalog* VecPipelineTest::catalog_ = nullptr;

TEST_F(VecPipelineTest, Q1VectorizedMatchesRowMode) {
  QueryResult row_mode = MustExecute(kQ1, false);
  QueryResult vec_mode = MustExecute(kQ1, true);
  ASSERT_EQ(row_mode.rows.size(), 6u);  // 3 flags x 2 statuses.
  EXPECT_EQ(Canonical(row_mode), Canonical(vec_mode));
}

TEST_F(VecPipelineTest, Q6VectorizedMatchesRowMode) {
  QueryResult row_mode = MustExecute(kQ6, false);
  QueryResult vec_mode = MustExecute(kQ6, true);
  ASSERT_EQ(row_mode.rows.size(), 1u);
  ASSERT_EQ(vec_mode.rows.size(), 1u);
  EXPECT_NEAR(row_mode.rows[0][0].AsDouble(), vec_mode.rows[0][0].AsDouble(),
              1e-6);
  EXPECT_FALSE(row_mode.rows[0][0].is_null());
}

TEST_F(VecPipelineTest, VectorizationCutsCpuTime) {
  // The headline §6 claim: substantially less cumulative task CPU time.
  QueryResult row_mode = MustExecute(kQ1, false);
  QueryResult vec_mode = MustExecute(kQ1, true);
  EXPECT_LT(vec_mode.counters.cpu_millis(),
            row_mode.counters.cpu_millis())
      << "vectorized Q1 should consume less CPU";
}

TEST_F(VecPipelineTest, ProjectionOnlyQueryVectorizes) {
  const std::string sql =
      "SELECT l_orderkey, l_extendedprice * l_discount AS x "
      "FROM tpch_lineitem WHERE l_quantity < 3";
  QueryResult row_mode = MustExecute(sql, false);
  QueryResult vec_mode = MustExecute(sql, true);
  ASSERT_FALSE(row_mode.rows.empty());
  EXPECT_EQ(Canonical(row_mode), Canonical(vec_mode));
}

TEST_F(VecPipelineTest, UnsupportedShapeFallsBackToRowMode) {
  // OR predicates are not vectorizable; the run must still succeed
  // (validation falls back, paper §6.4).
  const std::string sql =
      "SELECT COUNT(*) AS c FROM tpch_lineitem "
      "WHERE l_returnflag = 'N' OR l_returnflag = 'R'";
  QueryResult row_mode = MustExecute(sql, false);
  QueryResult vec_mode = MustExecute(sql, true);
  ASSERT_EQ(row_mode.rows.size(), 1u);
  EXPECT_EQ(row_mode.rows[0][0].AsInt(), vec_mode.rows[0][0].AsInt());
}

TEST_F(VecPipelineTest, StringFilterVectorizes) {
  const std::string sql =
      "SELECT COUNT(*) AS c, SUM(l_quantity) AS q FROM tpch_lineitem "
      "WHERE l_returnflag = 'R' AND l_shipdate > 9000";
  QueryResult row_mode = MustExecute(sql, false);
  QueryResult vec_mode = MustExecute(sql, true);
  EXPECT_EQ(row_mode.rows[0][0].AsInt(), vec_mode.rows[0][0].AsInt());
  EXPECT_NEAR(row_mode.rows[0][1].AsDouble(), vec_mode.rows[0][1].AsDouble(),
              1e-6);
}

/// The typed aggregator against row mode on every key and argument type:
/// NULL keys, string keys (constant over whole batches, so the reader
/// hands them over as repeating vectors), double keys holding -0.0 and 0.0,
/// NaN keys of two signs (in a column of their own: Value::Compare finds
/// NaN equal to every number, so the shuffle's sort cannot order NaN
/// against other doubles), boolean keys, more than 1024 groups, MIN/MAX of
/// each type and COUNT of a mostly-NULL column. Double arguments are
/// multiples of 0.25, so every sum is exact in any order and results
/// compare exactly.
class VecAggregatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new dfs::FileSystem();
    catalog_ = new Catalog(fs_);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<Row> rows;
    for (int64_t i = 0; i < 6000; ++i) {
      Row row;
      row.push_back(i % 7 == 0 ? Value::Null()
                               : Value::Int((i * 7919) % 1500));  // k_long
      // Rows 1000..3499 share one string, so some batches hold it alone
      // (repeating) after batches that created other groups first.
      row.push_back(i >= 1000 && i < 3500 ? Value::String("same")
                    : i % 11 == 0         ? Value::Null()
                    : Value::String("s" + std::to_string(i % 37)));
      const double dbl_keys[] = {-0.0, 0.0, 1.5, -2.25, 0.5 * (i % 50)};
      row.push_back(i % 6 == 5 ? Value::Null()
                               : Value::Double(dbl_keys[i % 6]));  // k_dbl
      row.push_back(i % 3 == 0   ? Value::Null()
                    : i % 3 == 1 ? Value::Double(nan)
                                 : Value::Double(-nan));  // k_nan
      row.push_back(i % 5 == 0 ? Value::Null()
                               : Value::Bool(i % 2 == 1));  // k_bool
      row.push_back(i % 13 == 0 ? Value::Null()
                                : Value::Int((i * 31) % 2001 - 1000));
      row.push_back(i % 17 == 0   ? Value::Null()
                    : i % 29 == 0 ? Value::Double(-0.0)
                                  : Value::Double(((i * 37) % 801 - 400) *
                                                  0.25));  // v_dbl
      row.push_back(i % 19 == 0 ? Value::Null()
                                : Value::String(
                                      "v" + std::to_string((i * 13) % 97)));
      row.push_back(i % 23 == 0 ? Value::Null()
                                : Value::Bool(i % 3 == 0));  // v_bool
      row.push_back(i % 10 == 0 ? Value::Int(i) : Value::Null());  // v_null
      row.push_back(Value::String("constant"));                  // s_const
      // Like k_str without NULLs: a NULL-free dictionary batch holding one
      // value is the repeating vector the all-repeating probe takes.
      row.push_back(Value::String(i >= 1000 && i < 3500
                                      ? "same"
                                      : "r" + std::to_string(i % 37)));
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_, "aggtypes",
                    *TypeDescription::Parse(
                        "struct<k_long:bigint,k_str:string,k_dbl:double,"
                        "k_nan:double,k_bool:boolean,v_long:bigint,"
                        "v_dbl:double,v_str:string,v_bool:boolean,"
                        "v_null:bigint,s_const:string,k_run:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, rows, 3)
                    .ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete fs_;
  }

  /// Sorted rows rendered exactly; every NaN renders alike and -0.0 as 0,
  /// the equalities Value::Compare (and so the reduce-side merge) applies.
  static std::vector<std::string> Exact(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) {
        if (v.is_double()) {
          const double d = v.AsDouble();
          char buf[64];
          snprintf(buf, sizeof(buf), "%.17g", d == 0 ? 0.0 : d);
          s += std::isnan(d) ? "nan" : buf;
        } else {
          s += v.ToString();
        }
        s += "|";
      }
      rows.push_back(s);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Runs `sql`; *map_output_records (when given) receives the map-side
  /// partial rows emitted, one per group per map task.
  std::vector<std::string> Run(const std::string& sql, bool vectorized,
                               uint64_t* map_output_records = nullptr) {
    DriverOptions options;
    options.vectorized_execution = vectorized;
    Driver driver(fs_, catalog_, options);
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return {};
    if (map_output_records != nullptr) {
      *map_output_records = result->counters.map_output_records.load();
    }
    return Exact(*result);
  }

  static dfs::FileSystem* fs_;
  static Catalog* catalog_;
};

dfs::FileSystem* VecAggregatorTest::fs_ = nullptr;
Catalog* VecAggregatorTest::catalog_ = nullptr;

constexpr char kAllAggregates[] =
    "COUNT(*) AS n, COUNT(v_null) AS nn, COUNT(v_str) AS ns, "
    "SUM(v_long) AS sl, SUM(v_dbl) AS sd, AVG(v_long) AS al, "
    "AVG(v_dbl) AS ad, MIN(v_long) AS minl, MAX(v_long) AS maxl, "
    "MIN(v_dbl) AS mind, MAX(v_dbl) AS maxd, MIN(v_str) AS mins, "
    "MAX(v_str) AS maxs, MIN(v_bool) AS minb, MAX(v_bool) AS maxb";

TEST_F(VecAggregatorTest, EveryKeyTypeMatchesRowMode) {
  for (const char* keys : {"k_long", "k_str", "k_dbl", "k_nan", "k_bool",
                           "k_str, k_dbl, k_bool", "k_long, k_nan",
                           "s_const", "s_const, k_bool", "k_run",
                           "k_run, s_const"}) {
    const std::string sql = std::string("SELECT ") + keys + ", " +
                            kAllAggregates + " FROM aggtypes GROUP BY " +
                            keys;
    const std::vector<std::string> row_mode = Run(sql, false);
    ASSERT_FALSE(row_mode.empty()) << sql;
    EXPECT_EQ(Run(sql, true), row_mode) << sql;
  }
}

TEST_F(VecAggregatorTest, ManyGroupsGrowTheTable) {
  // Both engines emit one partial per group per map task: a table that
  // lost a group while growing would emit duplicates the reduce side
  // silently merges, so the partial counts are compared too.
  const std::string sql = std::string("SELECT k_long, ") + kAllAggregates +
                          " FROM aggtypes GROUP BY k_long";
  uint64_t row_partials = 0, vec_partials = 0;
  const std::vector<std::string> row_mode = Run(sql, false, &row_partials);
  EXPECT_GT(row_mode.size(), 1024u);
  EXPECT_EQ(Run(sql, true, &vec_partials), row_mode);
  EXPECT_EQ(vec_partials, row_partials);
  EXPECT_GE(vec_partials, row_mode.size());
}

TEST_F(VecAggregatorTest, RepeatingArgumentsMatchRowMode) {
  // s_const arrives as a repeating dictionary vector, and the literal
  // arguments as constant-expression outputs.
  const std::string sql =
      "SELECT k_str, MIN(s_const) AS a, MAX(s_const) AS b, "
      "COUNT(s_const) AS c, SUM(2) AS d, MAX(1.5) AS e "
      "FROM aggtypes GROUP BY k_str";
  const std::vector<std::string> row_mode = Run(sql, false);
  ASSERT_FALSE(row_mode.empty());
  EXPECT_EQ(Run(sql, true), row_mode);
}

TEST_F(VecAggregatorTest, FilteredAndEmptyInputsMatchRowMode) {
  for (const char* where : {"v_long < 0", "k_bool = TRUE",
                            "v_long < -5000"}) {
    for (const char* keys : {"", "k_str, "}) {
      std::string sql = std::string("SELECT ") + keys + kAllAggregates +
                        " FROM aggtypes WHERE " + where;
      if (keys[0] != '\0') sql += " GROUP BY k_str";
      const std::vector<std::string> row_mode = Run(sql, false);
      EXPECT_EQ(Run(sql, true), row_mode) << sql;
    }
  }
  // A global aggregate over empty input still emits its one row.
  const std::string empty = std::string("SELECT ") + kAllAggregates +
                            " FROM aggtypes WHERE v_long < -5000";
  const std::vector<std::string> vec_mode = Run(empty, true);
  ASSERT_EQ(vec_mode.size(), 1u);
  EXPECT_EQ(vec_mode[0].substr(0, 6), "0|0|0|");
}

}  // namespace
}  // namespace minihive::vec
