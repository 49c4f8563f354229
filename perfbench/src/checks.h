#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/value.h"

namespace perfbench {

using minihive::Row;

/// Relative tolerance for floating-point aggregates: the engine and the
/// references sum in different orders.
inline constexpr double kRelTolerance = 1e-9;

/// User bytes of a row, the denominator of the stored-bytes ratios: 8 per
/// non-null number (MiniHive holds every integer and double in 8 bytes), the
/// byte length of each non-null string, 0 per NULL; no per-row overhead.
uint64_t RawBytes(const Row& row);

/// Compares two result sets as multisets (both are sorted first). Integers
/// and strings must match exactly, doubles within kRelTolerance. On a
/// mismatch returns false and describes the first difference in *why.
bool RowsMatch(std::vector<Row> expected, std::vector<Row> actual,
               std::string* why);

/// Answers to the scan_agg shapes computed straight from the generator
/// (datagen::TpchLineitemRow), without parser, planner or engine.
class LineitemReference {
 public:
  LineitemReference(uint64_t rows, uint64_t seed);

  /// TPC-H Q1 rows: (l_returnflag, l_linestatus, sum_qty, sum_base_price,
  /// sum_disc_price, sum_charge, avg_qty, avg_price, avg_disc, count_order).
  const std::vector<Row>& q1() const { return q1_; }
  /// TPC-H Q6: one row holding the revenue.
  const std::vector<Row>& q6() const { return q6_; }
  /// The point query's rows for l_partkey = partkey (the 7-column
  /// projection: l_orderkey, l_partkey, l_quantity, l_extendedprice,
  /// l_shipinstruct, l_shipmode, l_comment).
  std::vector<Row> Point(int64_t partkey) const;
  /// RawBytes summed over every generated row.
  uint64_t raw_bytes() const { return raw_bytes_; }

 private:
  std::vector<Row> q1_;
  std::vector<Row> q6_;
  uint64_t seed_;
  uint64_t raw_bytes_ = 0;
  /// Generator indexes of the rows holding each l_partkey.
  std::unordered_map<int64_t, std::vector<uint32_t>> by_partkey_;
};

/// The live contents of the ingest table, maintained beside the program:
/// key -> (grp, amount).
class IngestModel {
 public:
  void Upsert(int64_t key, int64_t grp, double amount) {
    live_[key] = {grp, amount};
  }
  /// Removes keys in [lo, hi]; returns how many were live.
  uint64_t DeleteRange(int64_t lo, int64_t hi);
  bool Contains(int64_t key) const { return live_.count(key) > 0; }
  size_t size() const { return live_.size(); }
  /// Expected rollup rows: (grp, COUNT(*), SUM(amount)) per group.
  std::vector<Row> Rollup() const;

 private:
  std::map<int64_t, std::pair<int64_t, double>> live_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
