#include "common/value.h"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace minihive {

namespace {

/// 64-bit finalizer from MurmurHash3; good avalanche for partitioning.
uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

uint64_t HashBytes(const std::string& s) {
  // FNV-1a, then mixed.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

/// A total order on doubles: NaN (of any sign or payload) sorts after
/// every number and equals only NaN, so sorting and grouping stay
/// consistent; -0.0 equals 0.0.
int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
}

}  // namespace

Value Value::MakeArray(Array elements) {
  return Value(Rep(std::make_shared<Array>(std::move(elements))));
}

Value Value::MakeMap(MapEntries entries) {
  return Value(Rep(std::make_shared<MapEntries>(std::move(entries))));
}

Value Value::MakeStruct(StructFields fields) {
  return Value(Rep(std::make_shared<StructData>(StructData{std::move(fields)})));
}

Value Value::MakeUnion(int tag, Value value) {
  return Value(
      Rep(std::make_shared<UnionValue>(UnionValue{tag, std::move(value)})));
}

int64_t Value::AsInt() const {
  if (is_int()) return std::get<int64_t>(data_);
  if (is_double()) return static_cast<int64_t>(std::get<double>(data_));
  std::abort();
}

double Value::AsDouble() const {
  if (is_double()) return std::get<double>(data_);
  if (is_int()) return static_cast<double>(std::get<int64_t>(data_));
  std::abort();
}

int Value::Compare(const Value& other) const {
  // NULL sorts first, as in Hive's default ordering.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Numeric cross-family comparison.
  bool numeric = is_int() || is_double();
  bool other_numeric = other.is_int() || other.is_double();
  if (numeric && other_numeric) {
    if (is_int() && other.is_int()) {
      int64_t a = std::get<int64_t>(data_);
      int64_t b = std::get<int64_t>(other.data_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  size_t index = data_.index();
  size_t other_index = other.data_.index();
  if (index != other_index) return index < other_index ? -1 : 1;
  if (is_string()) return AsString().compare(other.AsString());
  if (is_array()) {
    const Array& a = AsArray();
    const Array& b = other.AsArray();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  if (is_map()) {
    const MapEntries& a = AsMap();
    const MapEntries& b = other.AsMap();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].first.Compare(b[i].first);
      if (c != 0) return c;
      c = a[i].second.Compare(b[i].second);
      if (c != 0) return c;
    }
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  if (is_struct()) {
    const StructFields& a = AsStruct();
    const StructFields& b = other.AsStruct();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  if (is_union()) {
    const UnionValue& a = AsUnion();
    const UnionValue& b = other.AsUnion();
    if (a.tag != b.tag) return a.tag < b.tag ? -1 : 1;
    return a.value.Compare(b.value);
  }
  return 0;
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_int()) return Mix64(static_cast<uint64_t>(std::get<int64_t>(data_)));
  if (is_double()) {
    double d = std::get<double>(data_);
    // Hash integral doubles like their integer counterparts so that numeric
    // equality implies hash equality (Compare() treats 3 == 3.0), and every
    // NaN alike (Compare() finds them equal).
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    if (d == std::floor(d) && std::abs(d) < 9.2e18) {
      return Mix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
    }
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return Mix64(bits);
  }
  if (is_string()) return HashBytes(AsString());
  uint64_t h = 0x2545f4914f6cdd1dULL;
  auto combine = [&h](uint64_t v) { h = Mix64(h ^ v); };
  if (is_array()) {
    for (const Value& v : AsArray()) combine(v.Hash());
  } else if (is_map()) {
    for (const auto& [k, v] : AsMap()) {
      combine(k.Hash());
      combine(v.Hash());
    }
  } else if (is_struct()) {
    for (const Value& v : AsStruct()) combine(v.Hash());
  } else if (is_union()) {
    combine(static_cast<uint64_t>(AsUnion().tag));
    combine(AsUnion().value.Hash());
  }
  return h;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(std::get<int64_t>(data_));
  if (is_double()) {
    std::string s = std::to_string(std::get<double>(data_));
    return s;
  }
  if (is_string()) return AsString();
  std::string result;
  if (is_array()) {
    result = "[";
    const Array& a = AsArray();
    for (size_t i = 0; i < a.size(); ++i) {
      if (i > 0) result += ",";
      result += a[i].ToString();
    }
    result += "]";
  } else if (is_map()) {
    result = "{";
    const MapEntries& m = AsMap();
    for (size_t i = 0; i < m.size(); ++i) {
      if (i > 0) result += ",";
      result += m[i].first.ToString() + ":" + m[i].second.ToString();
    }
    result += "}";
  } else if (is_struct()) {
    result = "(";
    const StructFields& f = AsStruct();
    for (size_t i = 0; i < f.size(); ++i) {
      if (i > 0) result += ",";
      result += f[i].ToString();
    }
    result += ")";
  } else if (is_union()) {
    result = "<" + std::to_string(AsUnion().tag) + ":" +
             AsUnion().value.ToString() + ">";
  }
  return result;
}

int CompareRowsOn(const Row& a, const Row& b, const std::vector<int>& cols) {
  for (int col : cols) {
    int c = a[col].Compare(b[col]);
    if (c != 0) return c;
  }
  return 0;
}

uint64_t HashRowOn(const Row& row, const std::vector<int>& cols) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int col : cols) {
    h = (h ^ row[col].Hash()) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

uint64_t HashRowAllCols(const Row& row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : row) {
    h = (h ^ v.Hash()) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace minihive
