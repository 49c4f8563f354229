#include "checks.h"

#include <algorithm>
#include <cmath>

#include "datagen/tpch.h"

namespace perfbench {

using minihive::Value;

namespace {

bool IsNumber(const Value& v) { return v.is_int() || v.is_double(); }

bool ValuesMatch(const Value& a, const Value& b) {
  if (IsNumber(a) && IsNumber(b)) {
    if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <=
           kRelTolerance * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a.Compare(b) == 0;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

std::string RowText(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace

uint64_t RawBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) {
    if (v.is_string()) {
      bytes += v.AsString().size();
    } else if (!v.is_null()) {
      bytes += 8;
    }
  }
  return bytes;
}

bool RowsMatch(std::vector<Row> expected, std::vector<Row> actual,
               std::string* why) {
  if (expected.size() != actual.size()) {
    *why = "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(actual.size());
    return false;
  }
  std::sort(expected.begin(), expected.end(), RowLess);
  std::sort(actual.begin(), actual.end(), RowLess);
  for (size_t r = 0; r < expected.size(); ++r) {
    const Row& e = expected[r];
    const Row& a = actual[r];
    bool same = e.size() == a.size();
    for (size_t c = 0; same && c < e.size(); ++c) {
      same = ValuesMatch(e[c], a[c]);
    }
    if (!same) {
      *why = "row " + std::to_string(r) + ": expected " + RowText(e) +
             ", got " + RowText(a);
      return false;
    }
  }
  return true;
}

LineitemReference::LineitemReference(uint64_t rows, uint64_t seed)
    : seed_(seed) {
  struct Q1Acc {
    double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
    int64_t count = 0;
  };
  std::map<std::pair<std::string, std::string>, Q1Acc> q1;
  double revenue = 0;
  for (uint64_t i = 0; i < rows; ++i) {
    const Row row = minihive::datagen::TpchLineitemRow(i, seed);
    raw_bytes_ += RawBytes(row);
    const double qty = row[4].AsDouble();
    const double price = row[5].AsDouble();
    const double discount = row[6].AsDouble();
    const double tax = row[7].AsDouble();
    const int64_t shipdate = row[10].AsInt();
    if (shipdate <= minihive::datagen::kTpchQ1ShipdateCutoff) {
      Q1Acc& acc = q1[{row[8].AsString(), row[9].AsString()}];
      acc.qty += qty;
      acc.base += price;
      acc.disc_price += price * (1 - discount);
      acc.charge += price * (1 - discount) * (1 + tax);
      acc.disc += discount;
      ++acc.count;
    }
    if (shipdate >= 8766 && shipdate <= 9131 && discount >= 0.05 &&
        discount <= 0.07 && qty < 24) {
      revenue += price * discount;
    }
    by_partkey_[row[1].AsInt()].push_back(static_cast<uint32_t>(i));
  }
  for (const auto& [key, acc] : q1) {
    const double n = static_cast<double>(acc.count);
    q1_.push_back({Value::String(key.first), Value::String(key.second),
                   Value::Double(acc.qty), Value::Double(acc.base),
                   Value::Double(acc.disc_price), Value::Double(acc.charge),
                   Value::Double(acc.qty / n), Value::Double(acc.base / n),
                   Value::Double(acc.disc / n), Value::Int(acc.count)});
  }
  q6_.push_back({Value::Double(revenue)});
}

std::vector<Row> LineitemReference::Point(int64_t partkey) const {
  std::vector<Row> rows;
  auto it = by_partkey_.find(partkey);
  if (it == by_partkey_.end()) return rows;
  for (uint32_t i : it->second) {
    const Row row = minihive::datagen::TpchLineitemRow(i, seed_);
    rows.push_back({row[0], row[1], row[4], row[5], row[13], row[14], row[15]});
  }
  return rows;
}

uint64_t IngestModel::DeleteRange(int64_t lo, int64_t hi) {
  auto first = live_.lower_bound(lo);
  auto last = live_.upper_bound(hi);
  const uint64_t n = static_cast<uint64_t>(std::distance(first, last));
  live_.erase(first, last);
  return n;
}

std::vector<Row> IngestModel::Rollup() const {
  std::map<int64_t, std::pair<int64_t, double>> groups;
  for (const auto& [key, entry] : live_) {
    auto& g = groups[entry.first];
    ++g.first;
    g.second += entry.second;
  }
  std::vector<Row> rows;
  for (const auto& [grp, g] : groups) {
    rows.push_back(
        {Value::Int(grp), Value::Int(g.first), Value::Double(g.second)});
  }
  return rows;
}

}  // namespace perfbench
