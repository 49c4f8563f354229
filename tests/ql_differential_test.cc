/// Differential harness: randomized grammar-generated queries executed by
/// the row engine and the vectorized engine over TPC-H-shaped data must
/// produce identical results. Any divergence prints the seed and the SQL,
/// so a failure reproduces with a one-line test filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/loader.h"
#include "ql/driver.h"
#include "vec/simd.h"

namespace minihive::ql {
namespace {

/// Query generator: a small SQL grammar over lineitem/orders. Everything is
/// driven by one Random stream, so a seed fully determines the query.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    bool join = rng_.Bernoulli(0.3);
    bool aggregate = rng_.Bernoulli(0.7);
    std::string sql = "SELECT ";
    std::string group_col;
    if (aggregate) {
      if (rng_.Bernoulli(0.8)) {
        group_col = PickGroupColumn(join);
        sql += group_col + ", ";
      }
      int num_aggs = 1 + static_cast<int>(rng_.Uniform(3));
      for (int i = 0; i < num_aggs; ++i) {
        if (i > 0) sql += ", ";
        sql += PickAggregate(i);
      }
    } else {
      sql += "l_orderkey, l_linenumber, " + PickNumericExpr("p");
    }
    sql += " FROM lineitem";
    if (join) sql += " JOIN orders ON l_orderkey = o_orderkey";
    if (rng_.Bernoulli(0.75)) sql += " WHERE " + PickPredicate(join);
    if (!group_col.empty()) sql += " GROUP BY " + group_col;
    return sql;
  }

 private:
  std::string PickGroupColumn(bool join) {
    const char* own[] = {"l_returnflag", "l_linenumber", "l_suppkey"};
    const char* joined[] = {"l_returnflag", "l_linenumber", "o_priority"};
    return join ? joined[rng_.Uniform(3)] : own[rng_.Uniform(3)];
  }

  std::string PickNumericColumn() {
    const char* cols[] = {"l_quantity", "l_extendedprice", "l_discount",
                          "l_suppkey"};
    return cols[rng_.Uniform(4)];
  }

  std::string PickAggregate(int i) {
    std::string col = PickNumericColumn();
    std::string alias = " AS a" + std::to_string(i);
    switch (rng_.Uniform(5)) {
      case 0: return "COUNT(*)" + alias;
      case 1: return "SUM(" + col + ")" + alias;
      case 2: return "MIN(" + col + ")" + alias;
      case 3: return "MAX(" + col + ")" + alias;
      default: return "AVG(" + col + ")" + alias;
    }
  }

  std::string PickNumericExpr(const std::string& alias) {
    std::string col = PickNumericColumn();
    switch (rng_.Uniform(3)) {
      case 0: return col + " AS " + alias;
      case 1:
        return col + " * " + std::to_string(1 + rng_.Uniform(4)) + " AS " +
               alias;
      default: return col + " + " + PickNumericColumn() + " AS " + alias;
    }
  }

  std::string PickComparison() {
    switch (rng_.Uniform(4)) {
      case 0:
        return "l_quantity < " + std::to_string(rng_.Uniform(50));
      case 1:
        return "l_suppkey = " + std::to_string(rng_.Uniform(40));
      case 2: {
        uint64_t lo = rng_.Uniform(30);
        return "l_quantity BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(lo + 1 + rng_.Uniform(20));
      }
      default:
        return std::string("l_returnflag = '") +
               (rng_.Bernoulli(0.5) ? "A" : "R") + "'";
    }
  }

  std::string PickPredicate(bool join) {
    std::string pred = PickComparison();
    if (rng_.Bernoulli(0.4)) pred += " AND " + PickComparison();
    if (join && rng_.Bernoulli(0.3)) pred += " AND o_custkey < 60";
    return pred;
  }

  Random rng_;
};

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs::FileSystemOptions fs_options;
    fs_options.block_size = 128 * 1024;
    fs_ = std::make_unique<dfs::FileSystem>(fs_options);
    catalog_ = std::make_unique<Catalog>(fs_.get());

    // TPC-H-shaped lineitem: keys cluster (several lines per order),
    // quantities/prices/discounts in TPC-H-ish ranges, skewed flags.
    std::vector<Row> lineitem;
    Random rng(7);
    for (int i = 0; i < 3000; ++i) {
      int64_t orderkey = i / 4;
      const char* flags[] = {"N", "N", "N", "A", "R"};
      lineitem.push_back(
          {Value::Int(orderkey), Value::Int(i % 7 + 1),
           Value::Int(static_cast<int64_t>(rng.Uniform(40))),
           Value::Int(static_cast<int64_t>(1 + rng.Uniform(50))),
           Value::Double(900.0 + static_cast<double>(rng.Uniform(100000)) / 100.0),
           Value::Double(static_cast<double>(rng.Uniform(11)) / 100.0),
           Value::String(flags[rng.Uniform(5)])});
    }
    ASSERT_TRUE(
        datagen::CreateAndLoad(
            catalog_.get(), "lineitem",
            *TypeDescription::Parse(
                "struct<l_orderkey:bigint,l_linenumber:bigint,"
                "l_suppkey:bigint,l_quantity:bigint,"
                "l_extendedprice:double,l_discount:double,"
                "l_returnflag:string>"),
            formats::FormatKind::kOrcFile, codec::CompressionKind::kNone,
            lineitem, 3)
            .ok());

    std::vector<Row> orders;
    const char* priorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"};
    for (int i = 0; i < 750; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 100),
                        Value::String(priorities[i % 4])});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orders",
                    *TypeDescription::Parse(
                        "struct<o_orderkey:bigint,o_custkey:bigint,"
                        "o_priority:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, orders, 2)
                    .ok());
  }

  Result<QueryResult> Execute(const std::string& sql, bool vectorized,
                              uint64_t cache_seed = 0) {
    DriverOptions options;
    options.num_workers = 2;
    options.vectorized_execution = vectorized;
    // Randomize the session caches per (seed, engine): caching is a pure
    // performance layer, so any cache state — off, tiny (constant eviction
    // churn), or default — must leave results untouched.
    Random cache_rng(cache_seed * 2 + (vectorized ? 1 : 0));
    switch (cache_rng.Uniform(3)) {
      case 0:
        options.block_cache_bytes = 0;
        options.metadata_cache_bytes = 0;
        break;
      case 1:
        options.block_cache_bytes = 16 * 1024;
        options.metadata_cache_bytes = 4 * 1024;
        break;
      default:
        break;  // Default budgets.
    }
    // Late materialization and SIMD dispatch are pure performance layers
    // too: toggle them per (seed, engine) so the sweep covers two-phase vs
    // eager ORC reads and AVX2 vs scalar kernels in every combination. The
    // kernel arm is process-wide, so it is switched between queries.
    options.enable_late_materialization = cache_rng.Uniform(2) == 0;
    simd::SetEnabled(cache_rng.Uniform(2) == 0);
    Driver driver(fs_.get(), catalog_.get(), options);
    Result<QueryResult> result = driver.Execute(sql);
    simd::SetEnabled(true);
    return result;
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

/// Orders rows deterministically by Value::Compare so both engines' task
/// interleavings canonicalize identically.
void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
}

/// Exact for ints/strings/nulls; tolerant for doubles (the engines may sum
/// partials in different groupings).
void ExpectRowsEqual(const std::vector<Row>& row_mode,
                     const std::vector<Row>& vec_mode,
                     const std::string& context) {
  ASSERT_EQ(row_mode.size(), vec_mode.size()) << context;
  for (size_t r = 0; r < row_mode.size(); ++r) {
    ASSERT_EQ(row_mode[r].size(), vec_mode[r].size()) << context;
    for (size_t c = 0; c < row_mode[r].size(); ++c) {
      const Value& a = row_mode[r][c];
      const Value& b = vec_mode[r][c];
      if (a.is_double() && b.is_double()) {
        double tolerance =
            1e-9 * std::max(1.0, std::max(std::abs(a.AsDouble()),
                                          std::abs(b.AsDouble())));
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(), tolerance)
            << context << " row " << r << " col " << c;
      } else {
        EXPECT_EQ(a.Compare(b), 0)
            << context << " row " << r << " col " << c << ": "
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

TEST_F(DifferentialTest, RowAndVectorizedAgreeOnRandomQueries) {
  const int kSeeds = 40;
  int vectorized_jobs = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::string sql = QueryGen(seed).Generate();
    const std::string context =
        "seed " + std::to_string(seed) + ": " + sql;

    auto row_result = Execute(sql, /*vectorized=*/false, seed);
    ASSERT_TRUE(row_result.ok())
        << context << "\nrow engine: " << row_result.status().ToString();
    auto vec_result = Execute(sql, /*vectorized=*/true, seed);
    ASSERT_TRUE(vec_result.ok())
        << context << "\nvectorized: " << vec_result.status().ToString();

    SortRows(&row_result->rows);
    SortRows(&vec_result->rows);
    ExpectRowsEqual(row_result->rows, vec_result->rows, context);
    vectorized_jobs += vec_result->num_jobs;
  }
  // If no generated query ever ran a job, the sweep tested nothing.
  EXPECT_GT(vectorized_jobs, 0);
}

TEST_F(DifferentialTest, RandomMutationsAgreeAcrossEnginesAndModel) {
  // DML differential: a random sequence of INSERT INTO (upsert) and DELETE
  // statements against a managed partitioned unique-key table, mirrored
  // into an exact in-memory model. After every mutation the full table is
  // read back on BOTH engines and compared to the model — catching wrong
  // bitmaps, wrong key-index updates, and row/vectorized divergence on
  // merge-on-read state, with the seed printed for replay.
  const int kSeeds = 6;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const std::string table = "mut" + std::to_string(seed);
    ASSERT_TRUE(Execute("CREATE TABLE " + table +
                            " (k INT, grp INT, amount DOUBLE) "
                            "PARTITIONED BY (grp) UNIQUE KEY (k)",
                        false)
                    .ok());
    Random rng(seed * 131 + 17);
    std::map<int64_t, std::pair<int64_t, double>> model;  // k -> (grp, amt).
    for (int step = 0; step < 8; ++step) {
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (model.empty() || rng.Bernoulli(0.7)) {
        const int n = 1 + static_cast<int>(rng.Uniform(15));
        std::string values;
        for (int i = 0; i < n; ++i) {
          const int64_t k = static_cast<int64_t>(rng.Uniform(60));
          const int64_t grp = k % 3;
          const int64_t whole = static_cast<int64_t>(rng.Uniform(1000));
          if (!values.empty()) values += ", ";
          values += "(" + std::to_string(k) + ", " + std::to_string(grp) +
                    ", " + std::to_string(whole) + ".5)";
          model[k] = {grp, static_cast<double>(whole) + 0.5};  // Last wins.
        }
        auto r = Execute("INSERT INTO " + table + " VALUES " + values, false);
        ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
      } else {
        std::string predicate;
        if (rng.Bernoulli(0.5)) {
          const int64_t bound = static_cast<int64_t>(rng.Uniform(60));
          predicate = "k < " + std::to_string(bound);
          for (auto it = model.begin(); it != model.end();) {
            it = it->first < bound ? model.erase(it) : std::next(it);
          }
        } else {
          const int64_t grp = static_cast<int64_t>(rng.Uniform(3));
          predicate = "grp = " + std::to_string(grp);
          for (auto it = model.begin(); it != model.end();) {
            it = it->second.first == grp ? model.erase(it) : std::next(it);
          }
        }
        auto r =
            Execute("DELETE FROM " + table + " WHERE " + predicate, false);
        ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
      }

      const std::string sql = "SELECT k, grp, amount FROM " + table;
      auto row_result = Execute(sql, /*vectorized=*/false, seed + step);
      ASSERT_TRUE(row_result.ok())
          << context << ": " << row_result.status().ToString();
      auto vec_result = Execute(sql, /*vectorized=*/true, seed + step);
      ASSERT_TRUE(vec_result.ok())
          << context << ": " << vec_result.status().ToString();
      std::vector<Row> expected;
      for (const auto& [k, v] : model) {
        expected.push_back(
            {Value::Int(k), Value::Int(v.first), Value::Double(v.second)});
      }
      SortRows(&row_result->rows);
      SortRows(&vec_result->rows);
      SortRows(&expected);
      ExpectRowsEqual(expected, row_result->rows, context + " (row)");
      ExpectRowsEqual(row_result->rows, vec_result->rows,
                      context + " (row vs vec)");
    }
  }
}

/// Rows rendered exactly and sorted, with the equalities the reduce-side
/// merge applies (Value::Compare): every NaN renders alike and -0.0 as 0.
std::vector<std::string> ExactRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
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
    out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(DifferentialTest, TypedAggregatesAgreeAcrossEngines) {
  // Group-by shapes the lineitem grammar never produces: NULL, boolean and
  // special-double keys, string keys that arrive as repeating vectors, and
  // MIN/MAX of every argument type. Double arguments are multiples of 0.25
  // so sums are exact in any order and results compare exactly. NaN and
  // -NaN sit beside ordinary numbers in k_dbl (Value::Compare sorts every
  // NaN after the numbers, as one group) and alone in k_nan.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    const double dbl_keys[] = {-0.0, 0.0, 2.5, nan, -nan, 0.25 * (i % 9)};
    rows.push_back(
        {i % 9 == 0 ? Value::Null() : Value::Int((i * 131) % 1200),
         i < 1500 ? Value::String("run")
                  : (i % 7 == 0 ? Value::Null()
                                : Value::String(std::string(1 + i % 12, 'x') +
                                                std::to_string(i % 5))),
         i % 8 == 7 ? Value::Null() : Value::Double(dbl_keys[i % 6]),
         i % 3 == 0 ? Value::Null() : Value::Double(i % 3 == 1 ? nan : -nan),
         i % 5 == 0 ? Value::Null() : Value::Bool(i % 3 == 0),
         i % 11 == 0 ? Value::Null() : Value::Int((i * 37) % 501 - 250),
         i % 13 == 0 ? Value::Null()
                     : Value::Double(((i * 53) % 401 - 200) * 0.25),
         i % 17 == 0 ? Value::Null()
                     : Value::String("s" + std::to_string((i * 7) % 23)),
         i % 19 == 0 ? Value::Null() : Value::Bool(i % 4 == 1)});
  }
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "typed",
                  *TypeDescription::Parse(
                      "struct<k_int:bigint,k_str:string,k_dbl:double,"
                      "k_nan:double,k_bool:boolean,a_int:bigint,a_dbl:double,"
                      "a_str:string,a_bool:boolean>"),
                  formats::FormatKind::kOrcFile, codec::CompressionKind::kNone,
                  rows, 3)
                  .ok());
  const char* keys[] = {"k_int", "k_str", "k_dbl", "k_nan", "k_bool"};
  const char* args[] = {"a_int", "a_dbl", "a_str", "a_bool"};
  const char* predicates[] = {"a_int < 0", "a_dbl > 10", "k_bool = TRUE",
                              "a_int < -1000"};
  Random rng(2027);
  for (int q = 0; q < 24; ++q) {
    std::vector<std::string> group;
    for (const char* k : keys) {
      if (rng.Bernoulli(0.4)) group.push_back(k);
    }
    std::string select, group_by;
    for (const std::string& k : group) {
      select += k + ", ";
      group_by += (group_by.empty() ? "" : ", ") + k;
    }
    const int num_aggs = 1 + static_cast<int>(rng.Uniform(4));
    for (int a = 0; a < num_aggs; ++a) {
      if (a > 0) select += ", ";
      const std::string arg = args[rng.Uniform(4)];
      const bool numeric = arg == "a_int" || arg == "a_dbl";
      switch (rng.Uniform(numeric ? 5 : 3)) {
        case 0: select += "COUNT(*)"; break;
        case 1: select += "MIN(" + arg + ")"; break;
        case 2: select += "MAX(" + arg + ")"; break;
        case 3: select += "SUM(" + arg + ")"; break;
        default: select += "AVG(" + arg + ")"; break;
      }
      select += " AS c" + std::to_string(a);
    }
    std::string sql = "SELECT " + select + " FROM typed";
    if (rng.Bernoulli(0.3)) {
      sql += std::string(" WHERE ") + predicates[rng.Uniform(4)];
    }
    if (!group_by.empty()) sql += " GROUP BY " + group_by;
    auto row_result = Execute(sql, /*vectorized=*/false, q);
    ASSERT_TRUE(row_result.ok())
        << sql << ": " << row_result.status().ToString();
    auto vec_result = Execute(sql, /*vectorized=*/true, q);
    ASSERT_TRUE(vec_result.ok())
        << sql << ": " << vec_result.status().ToString();
    EXPECT_EQ(ExactRows(row_result->rows), ExactRows(vec_result->rows)) << sql;
  }
  // Filters over a column mixing NaN, -NaN, NULL and numbers: both engines
  // follow IEEE semantics (NaN fails every comparison but !=), and neither
  // the SARG nor late materialization drops a row the filter keeps.
  const struct {
    const char* predicate;
    bool (*keep)(double);
  } nan_filters[] = {
      {"k_dbl = 2.5", [](double d) { return d == 2.5; }},
      {"k_dbl != 2.5", [](double d) { return d != 2.5; }},
      {"k_dbl < 1", [](double d) { return d < 1; }},
      {"k_dbl >= 0.5", [](double d) { return d >= 0.5; }},
      {"k_dbl > 1000000", [](double d) { return d > 1000000; }},
      {"k_dbl BETWEEN 0.25 AND 2", [](double d) { return d >= 0.25 && d <= 2; }},
      {"k_nan != 0", [](double d) { return d != 0; }},
      {"k_nan <= 0", [](double d) { return d <= 0; }},
  };
  // MIN/MAX over NaN-bearing doubles: both engines order NaN above every
  // number, as Value::Compare does.
  {
    const std::string sql =
        "SELECT k_bool, MIN(k_dbl) AS lo, MAX(k_dbl) AS hi, MIN(k_nan) AS nlo, "
        "MAX(k_nan) AS nhi FROM typed GROUP BY k_bool";
    auto row_result = Execute(sql, /*vectorized=*/false);
    auto vec_result = Execute(sql, /*vectorized=*/true);
    ASSERT_TRUE(row_result.ok() && vec_result.ok()) << sql;
    EXPECT_EQ(ExactRows(row_result->rows), ExactRows(vec_result->rows)) << sql;
    for (const Row& row : row_result->rows) {
      EXPECT_TRUE(std::isnan(row[2].AsDouble())) << sql;
    }
  }
  for (const auto& f : nan_filters) {
    const int column = std::string(f.predicate).rfind("k_nan", 0) == 0 ? 3 : 2;
    int64_t expected = 0;
    for (const Row& row : rows) {
      if (!row[column].is_null() && f.keep(row[column].AsDouble())) ++expected;
    }
    const std::string sql =
        std::string("SELECT COUNT(*) FROM typed WHERE ") + f.predicate;
    for (bool vectorized : {false, true}) {
      auto result = Execute(sql, vectorized);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      ASSERT_EQ(result->rows.size(), 1u) << sql;
      EXPECT_EQ(result->rows[0][0].AsInt(), expected)
          << sql << (vectorized ? " (vectorized)" : " (row mode)");
    }
  }
}

TEST_F(DifferentialTest, HandWrittenSpotChecks) {
  // A few fixed queries with independently computable answers, as anchors
  // for the randomized sweep (a bug symmetric across both engines would
  // pass the differential check).
  auto count = Execute("SELECT COUNT(*) FROM lineitem", true);
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0].AsInt(), 3000);

  auto join = Execute(
      "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
      true);
  ASSERT_TRUE(join.ok());
  ASSERT_EQ(join->rows.size(), 1u);
  EXPECT_EQ(join->rows[0][0].AsInt(), 3000);  // Every line has its order.
}

}  // namespace
}  // namespace minihive::ql
