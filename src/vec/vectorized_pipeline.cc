#include "vec/vectorized_pipeline.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>

#include "exec/plan.h"
#include "orc/reader.h"
#include "vec/simd.h"
#include "vec/vector_expressions.h"

namespace minihive::vec {

namespace {

using exec::AggDesc;
using exec::AggKind;
using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;
using exec::OpDesc;
using exec::OpKind;

/// Turns slot (column, row) of a batch into a boxed Value.
Value BoxValue(const VectorizedRowBatch& batch, int column, int row,
               TypeKind type) {
  const ColumnVector* col = batch.columns[column].get();
  if (col->is_repeating) row = 0;  // Slot 0 holds the whole column (§6.2).
  if (!col->no_nulls && !col->not_null[row]) return Value::Null();
  switch (col->kind()) {
    case VectorKind::kLong: {
      int64_t v = static_cast<const LongColumnVector*>(col)->vector[row];
      return type == TypeKind::kBoolean ? Value::Bool(v != 0) : Value::Int(v);
    }
    case VectorKind::kDouble:
      return Value::Double(
          static_cast<const DoubleColumnVector*>(col)->vector[row]);
    case VectorKind::kBytes:
      return Value::String(std::string(
          static_cast<const BytesColumnVector*>(col)->GetView(row)));
  }
  return Value::Null();
}

/// Vectorized hash aggregation (map-side partial), one column at a time:
/// each batch's keys are flattened key column by key column, hashed and
/// probed against a flat open-addressing table of group ids, and then
/// every aggregate runs one tight loop over the surviving rows, specialised
/// by kind and argument type. Values are boxed only at Emit.
///
/// Keys group by value bits: longs and doubles by bit pattern (-0.0 and 0.0
/// are separate map-side groups, which the reduce-side merge joins as
/// Value::Compare does; equal NaNs share a group), strings by bytes, and
/// NULL is its own key. Double sums add each group's values in row order,
/// so partials are bit-identical to a row-at-a-time fold.
class VectorHashAggregator {
 public:
  struct AggSpec {
    AggKind kind = AggKind::kCountStar;
    int arg_column = -1;  // Batch column; -1 for COUNT(*).
    bool sums_double = false;  // Matches AggBuffer's partial typing.
  };

  /// `layout` is a batch of the pipeline's column layout; it fixes the
  /// vector kind of every key and argument column.
  VectorHashAggregator(const VectorizedRowBatch& layout,
                       std::vector<int> key_columns,
                       std::vector<TypeKind> key_types,
                       std::vector<AggSpec> aggs)
      : key_columns_(std::move(key_columns)),
        keys_(key_types.size()),
        width_(2 * keys_.size()),
        aggs_(std::move(aggs)),
        states_(aggs_.size()) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      keys_[k].type = key_types[k];
      keys_[k].kind = layout.columns[key_columns_[k]]->kind();
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].arg_column >= 0) {
        states_[a].arg_kind = layout.columns[aggs_[a].arg_column]->kind();
      }
    }
    if (keys_.empty()) {
      // A global aggregate has exactly one group and emits it even on
      // empty input (a zero partial).
      AddGroup();
    } else {
      slots_.assign(kInitialSlots, kEmptySlot);
    }
  }

  void Update(const VectorizedRowBatch& batch) {
    const int n = batch.SelectedCount();
    if (n == 0) return;
    if (!batch.selected_in_use && static_cast<int>(identity_.size()) < n) {
      identity_.resize(n);
      for (int i = 0; i < n; ++i) identity_[i] = i;
    }
    const int* rows =
        batch.selected_in_use ? batch.selected.data() : identity_.data();
    group_ids_.resize(n);
    if (keys_.empty()) {
      std::fill(group_ids_.begin(), group_ids_.end(), 0);
    } else {
      AssignGroups(batch, rows, n);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      const ColumnVector* arg =
          spec.arg_column < 0 ? nullptr : batch.columns[spec.arg_column].get();
      UpdateAggregate(spec, arg, rows, n, &states_[a]);
    }
  }

  /// Emits the partial rows ([keys][partials]) in first-seen group order;
  /// the layout matches the row-mode GroupByOperator's hash flush exactly.
  Status Emit(const std::function<Status(const Row&)>& consume) {
    Row out;
    for (uint32_t g = 0; g < num_groups_; ++g) {
      out.clear();
      const uint64_t* words = group_keys_.data() + g * width_;
      for (size_t k = 0; k < keys_.size(); ++k) {
        out.push_back(keys_[k].Box(g, words[2 * k], words[2 * k + 1]));
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        EmitState(aggs_[a], states_[a], g, &out);
      }
      MINIHIVE_RETURN_IF_ERROR(consume(out));
    }
    return Status::OK();
  }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  static constexpr size_t kInitialSlots = 64;
  static constexpr uint64_t kNullTag = 1;

  /// SplitMix64 finalizer: places groups in the table; equality is always
  /// decided by the key words (and bytes), never by the hash.
  static uint64_t Mix64(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  /// A key column. Each row's key is flattened into two words per column:
  /// a value word (a long's or double's bits; a string's bytes when they
  /// fit in eight, zero padded, else their hash) and a tag word (1 for
  /// NULL, else twice the string length, 0 for a number). Equal keys have
  /// equal words, and unequal keys unequal words except for long strings,
  /// whose bytes are compared too.
  struct KeyColumn {
    TypeKind type = TypeKind::kBigInt;
    VectorKind kind = VectorKind::kLong;
    std::vector<uint64_t> offset;  // Strings: per group, a span in `arena`.
    std::string arena;

    Value Box(uint32_t g, uint64_t value, uint64_t tag) const {
      if (tag & kNullTag) return Value::Null();
      switch (kind) {
        case VectorKind::kLong: {
          int64_t v = static_cast<int64_t>(value);
          return type == TypeKind::kBoolean ? Value::Bool(v != 0)
                                            : Value::Int(v);
        }
        case VectorKind::kDouble:
          return Value::Double(std::bit_cast<double>(value));
        case VectorKind::kBytes:
          break;
      }
      return Value::String(arena.substr(offset[g], tag >> 1));
    }
  };

  /// Per-aggregate state arrays, one slot per group. Every aggregate counts
  /// the values it folded (a group with none emits NULL for SUM, AVG, MIN
  /// and MAX); SUM/AVG add a sum and MIN/MAX keep the typed extreme.
  struct AggStates {
    VectorKind arg_kind = VectorKind::kLong;
    std::vector<int64_t> count;
    std::vector<int64_t> longs;    // Integer sums / long extremes.
    std::vector<double> doubles;   // Double sums / double extremes.
    std::vector<std::string> strings;  // String extremes.
  };

  /// The value word of a non-NULL string of `n` bytes at `at`, with
  /// `tail` arena bytes from `at` on: its bytes when they fit in eight (one
  /// load when eight bytes are there, masked to the length), else a hash.
  static uint64_t BytesWord(const char* at, size_t n, size_t tail) {
    if (n > sizeof(uint64_t)) return simd::HashBytes(at, n);
    uint64_t word = 0;
    if (tail >= sizeof(uint64_t)) {
      std::memcpy(&word, at, sizeof(word));
      return n == sizeof(uint64_t) ? word
                                   : word & ((uint64_t{1} << (8 * n)) - 1);
    }
    std::memcpy(&word, at, n);
    return word;
  }

  /// Writes key column k's two words for every selected row into
  /// row_keys_ (row j's key starts at j * width_).
  void FillKeyColumn(size_t k, const ColumnVector* col, const int* rows,
                     int n) {
    uint64_t* out = row_keys_.data() + 2 * k;
    const size_t w = width_;
    // A repeating column holds one value for the whole batch, in slot 0.
    const int zeros[1] = {0};
    const int count = col->is_repeating ? 1 : n;
    if (col->is_repeating) rows = zeros;
    const uint8_t* not_null = col->no_nulls ? nullptr : col->not_null.data();
    auto is_null = [&](int i) { return not_null != nullptr && !not_null[i]; };
    switch (col->kind()) {
      case VectorKind::kLong: {
        const int64_t* v =
            static_cast<const LongColumnVector*>(col)->vector.data();
        for (int j = 0; j < count; ++j) {
          const int i = rows[j];
          const bool null = is_null(i);
          out[j * w] = null ? 0 : static_cast<uint64_t>(v[i]);
          out[j * w + 1] = null ? kNullTag : 0;
        }
        break;
      }
      case VectorKind::kDouble: {
        const double* v =
            static_cast<const DoubleColumnVector*>(col)->vector.data();
        for (int j = 0; j < count; ++j) {
          const int i = rows[j];
          const bool null = is_null(i);
          out[j * w] = null ? 0 : std::bit_cast<uint64_t>(v[i]);
          out[j * w + 1] = null ? kNullTag : 0;
        }
        break;
      }
      case VectorKind::kBytes: {
        const auto* bytes = static_cast<const BytesColumnVector*>(col);
        const char* arena = bytes->arena.data();
        const size_t arena_size = bytes->arena.size();
        const size_t* offset = bytes->offset.data();
        const int32_t* length = bytes->length.data();
        for (int j = 0; j < count; ++j) {
          const int i = rows[j];
          if (is_null(i)) {
            out[j * w] = 0;
            out[j * w + 1] = kNullTag;
          } else {
            const size_t n = static_cast<size_t>(length[i]);
            out[j * w] =
                BytesWord(arena + offset[i], n, arena_size - offset[i]);
            out[j * w + 1] = n << 1;
          }
        }
        break;
      }
    }
    for (int j = count; j < n; ++j) {
      out[j * w] = out[0];
      out[j * w + 1] = out[1];
    }
  }

  /// True when group g's key equals selected row j's (batch row `row`):
  /// equal words, and equal bytes for strings longer than a word.
  bool KeyEquals(const VectorizedRowBatch& batch, uint32_t g, int j,
                 int row) const {
    const uint64_t* group = group_keys_.data() + g * width_;
    const uint64_t* key = row_keys_.data() + j * width_;
    for (size_t w = 0; w < width_; ++w) {
      if (group[w] != key[w]) return false;
    }
    for (size_t k = 0; k < keys_.size(); ++k) {
      const size_t length = key[2 * k + 1] >> 1;
      if (keys_[k].kind != VectorKind::kBytes || length <= sizeof(uint64_t)) {
        continue;
      }
      const ColumnVector* col = batch.columns[key_columns_[k]].get();
      std::string_view v = static_cast<const BytesColumnVector*>(col)->GetView(
          col->is_repeating ? 0 : row);
      if (std::memcmp(v.data(), keys_[k].arena.data() + keys_[k].offset[g],
                      length) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Fills group_ids_ for the selected rows, creating groups on first sight.
  void AssignGroups(const VectorizedRowBatch& batch, const int* rows, int n) {
    bool all_repeating = true;
    for (int column : key_columns_) {
      all_repeating = all_repeating && batch.columns[column]->is_repeating;
    }
    // Every row of an all-repeating key batch is in the first row's group.
    const int probes = all_repeating ? 1 : n;
    row_keys_.resize(static_cast<size_t>(probes) * width_);
    for (size_t k = 0; k < keys_.size(); ++k) {
      FillKeyColumn(k, batch.columns[key_columns_[k]].get(), rows, probes);
    }
    hashes_.resize(probes);
    for (int j = 0; j < probes; ++j) {
      const uint64_t* key = row_keys_.data() + j * width_;
      uint64_t h = 0;
      for (size_t w = 0; w < width_; ++w) {
        h = (h ^ key[w]) * 0x9e3779b97f4a7c15ULL;
      }
      hashes_[j] = Mix64(h);
    }
    for (int j = 0; j < probes; ++j) {
      const uint64_t h = hashes_[j];
      const size_t mask = slots_.size() - 1;
      size_t pos = static_cast<size_t>(h) & mask;
      uint32_t g;
      while (true) {
        g = slots_[pos];
        if (g == kEmptySlot) {
          g = AddGroup();
          group_hashes_.push_back(h);
          StoreKey(batch, j, rows[j]);
          slots_[pos] = g;
          if (2 * static_cast<size_t>(num_groups_) > slots_.size()) Grow();
          break;
        }
        if (group_hashes_[g] == h && KeyEquals(batch, g, j, rows[j])) break;
        pos = (pos + 1) & mask;
      }
      group_ids_[j] = g;
    }
    if (all_repeating) {
      std::fill(group_ids_.begin(), group_ids_.end(), group_ids_[0]);
    }
  }

  /// Records selected row j's key (batch row `row`) as the newest group's.
  void StoreKey(const VectorizedRowBatch& batch, int j, int row) {
    const uint64_t* key = row_keys_.data() + j * width_;
    group_keys_.insert(group_keys_.end(), key, key + width_);
    for (size_t k = 0; k < keys_.size(); ++k) {
      KeyColumn& column = keys_[k];
      if (column.kind != VectorKind::kBytes) continue;
      column.offset.push_back(column.arena.size());
      if (key[2 * k + 1] & kNullTag) continue;
      const ColumnVector* col = batch.columns[key_columns_[k]].get();
      column.arena.append(static_cast<const BytesColumnVector*>(col)->GetView(
          col->is_repeating ? 0 : row));
    }
  }

  /// Doubles the slot array and re-places every group from its stored hash.
  void Grow() {
    slots_.assign(slots_.size() * 2, kEmptySlot);
    const size_t mask = slots_.size() - 1;
    for (uint32_t g = 0; g < num_groups_; ++g) {
      size_t pos = static_cast<size_t>(group_hashes_[g]) & mask;
      while (slots_[pos] != kEmptySlot) pos = (pos + 1) & mask;
      slots_[pos] = g;
    }
  }

  uint32_t AddGroup() {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggStates& s = states_[a];
      s.count.push_back(0);
      s.longs.push_back(0);
      s.doubles.push_back(0);
      if (aggs_[a].kind == AggKind::kMin || aggs_[a].kind == AggKind::kMax) {
        s.strings.emplace_back();
      }
    }
    return num_groups_++;
  }

  /// Calls f(j, slot) for every selected row j whose argument value at
  /// `slot` is not NULL. Each vector shape (repeating, NULL-free, with
  /// NULLs) has its own loop, so no loop tests the shape per row.
  template <typename F>
  static void ForEachValue(const ColumnVector* col, const int* rows, int n,
                           F&& f) {
    if (col->is_repeating) {
      if (!col->no_nulls && !col->not_null[0]) return;
      for (int j = 0; j < n; ++j) f(j, 0);
    } else if (col->no_nulls) {
      for (int j = 0; j < n; ++j) f(j, rows[j]);
    } else {
      const uint8_t* not_null = col->not_null.data();
      for (int j = 0; j < n; ++j) {
        const int i = rows[j];
        if (not_null[i]) f(j, i);
      }
    }
  }

  void UpdateAggregate(const AggSpec& spec, const ColumnVector* col,
                       const int* rows, int n, AggStates* s) {
    const uint32_t* gid = group_ids_.data();
    int64_t* count = s->count.data();
    switch (spec.kind) {
      case AggKind::kCountStar:
        for (int j = 0; j < n; ++j) ++count[gid[j]];
        return;
      case AggKind::kCount:
        ForEachValue(col, rows, n, [&](int j, int) { ++count[gid[j]]; });
        return;
      case AggKind::kSum:
      case AggKind::kAvg: {
        if (!spec.sums_double) {
          const int64_t* v =
              static_cast<const LongColumnVector*>(col)->vector.data();
          int64_t* sum = s->longs.data();
          ForEachValue(col, rows, n, [&](int j, int i) {
            const uint32_t g = gid[j];
            sum[g] = static_cast<int64_t>(static_cast<uint64_t>(sum[g]) +
                                          static_cast<uint64_t>(v[i]));
            ++count[g];
          });
        } else if (col->kind() == VectorKind::kLong) {
          const int64_t* v =
              static_cast<const LongColumnVector*>(col)->vector.data();
          double* sum = s->doubles.data();
          ForEachValue(col, rows, n, [&](int j, int i) {
            const uint32_t g = gid[j];
            sum[g] += static_cast<double>(v[i]);
            ++count[g];
          });
        } else {
          const double* v =
              static_cast<const DoubleColumnVector*>(col)->vector.data();
          double* sum = s->doubles.data();
          ForEachValue(col, rows, n, [&](int j, int i) {
            const uint32_t g = gid[j];
            sum[g] += v[i];
            ++count[g];
          });
        }
        return;
      }
      case AggKind::kMin:
      case AggKind::kMax:
        if (spec.kind == AggKind::kMin) {
          UpdateExtreme(col, rows, n, s, TotalLess());
        } else {
          UpdateExtreme(col, rows, n, s, TotalGreater());
        }
        return;
    }
  }

  /// Value::Compare's order on unboxed values: NaN after every number.
  struct TotalLess {
    template <typename T>
    bool operator()(const T& a, const T& b) const {
      return a < b;
    }
    bool operator()(double a, double b) const {
      return a < b || (std::isnan(b) && !std::isnan(a));
    }
  };
  struct TotalGreater {
    template <typename T>
    bool operator()(const T& a, const T& b) const {
      return TotalLess()(b, a);
    }
  };

  /// MIN/MAX with typed state: a value replaces the extreme only when
  /// `better(value, extreme)`, so ties keep the first value seen, as
  /// AggBuffer does with Value::Compare on boxed values.
  template <typename Better>
  void UpdateExtreme(const ColumnVector* col, const int* rows, int n,
                     AggStates* s, Better better) {
    const uint32_t* gid = group_ids_.data();
    int64_t* count = s->count.data();
    switch (col->kind()) {
      case VectorKind::kLong: {
        const int64_t* v =
            static_cast<const LongColumnVector*>(col)->vector.data();
        int64_t* ext = s->longs.data();
        ForEachValue(col, rows, n, [&](int j, int i) {
          const uint32_t g = gid[j];
          if (count[g]++ == 0 || better(v[i], ext[g])) ext[g] = v[i];
        });
        return;
      }
      case VectorKind::kDouble: {
        const double* v =
            static_cast<const DoubleColumnVector*>(col)->vector.data();
        double* ext = s->doubles.data();
        ForEachValue(col, rows, n, [&](int j, int i) {
          const uint32_t g = gid[j];
          if (count[g]++ == 0 || better(v[i], ext[g])) ext[g] = v[i];
        });
        return;
      }
      case VectorKind::kBytes: {
        const auto* bytes = static_cast<const BytesColumnVector*>(col);
        std::string* ext = s->strings.data();
        ForEachValue(col, rows, n, [&](int j, int i) {
          const uint32_t g = gid[j];
          std::string_view x = bytes->GetView(i);
          if (count[g]++ == 0 || better(x, std::string_view(ext[g]))) {
            ext[g].assign(x);
          }
        });
        return;
      }
    }
  }

  static void EmitState(const AggSpec& spec, const AggStates& s, uint32_t g,
                        Row* out) {
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        out->push_back(Value::Int(s.count[g]));
        break;
      case AggKind::kSum:
        if (s.count[g] == 0) {
          out->push_back(Value::Null());
        } else if (spec.sums_double) {
          out->push_back(Value::Double(s.doubles[g]));
        } else {
          out->push_back(Value::Int(s.longs[g]));
        }
        break;
      case AggKind::kAvg:
        out->push_back(s.count[g] > 0 ? Value::Double(s.doubles[g])
                                      : Value::Null());
        out->push_back(Value::Int(s.count[g]));
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        if (s.count[g] == 0) {
          out->push_back(Value::Null());
        } else if (s.arg_kind == VectorKind::kLong) {
          out->push_back(Value::Int(s.longs[g]));
        } else if (s.arg_kind == VectorKind::kDouble) {
          out->push_back(Value::Double(s.doubles[g]));
        } else {
          out->push_back(Value::String(s.strings[g]));
        }
        break;
    }
  }

  std::vector<int> key_columns_;
  std::vector<KeyColumn> keys_;
  size_t width_;  // Words per flattened key: two per key column.
  std::vector<AggSpec> aggs_;
  std::vector<AggStates> states_;
  uint32_t num_groups_ = 0;
  std::vector<uint64_t> group_keys_;    // Per group: its flattened key.
  std::vector<uint64_t> group_hashes_;  // Per group: its key hash.
  std::vector<uint32_t> slots_;         // Open addressing: group id or empty.
  // Per-batch scratch, indexed by position in the selected rows.
  std::vector<uint64_t> row_keys_;  // Flattened keys, width_ words a row.
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> group_ids_;
  std::vector<int> identity_;  // 0..n-1, the rows of an unfiltered batch.
};

/// The validated pipeline shape: scan -> filters* -> [select | groupby] ->
/// (ReduceSink | FileSink).
struct PipelineShape {
  std::vector<const OpDesc*> filters;
  const OpDesc* select = nullptr;
  const OpDesc* gby = nullptr;
  const OpDesc* terminal = nullptr;
};

Status ValidateShape(const OpDesc* scan_root, PipelineShape* shape) {
  const OpDesc* cur = scan_root;
  while (true) {
    if (cur->children.size() != 1) {
      return Status::NotImplemented("vectorization: pipeline fan-out");
    }
    const OpDesc* next = cur->children[0].get();
    switch (next->kind) {
      case OpKind::kFilter:
        if (shape->select != nullptr || shape->gby != nullptr) {
          return Status::NotImplemented("vectorization: late filter");
        }
        shape->filters.push_back(next);
        break;
      case OpKind::kSelect:
        if (shape->select != nullptr || shape->gby != nullptr) {
          return Status::NotImplemented("vectorization: multiple selects");
        }
        shape->select = next;
        break;
      case OpKind::kGroupBy:
        if (next->group_by_mode != exec::GroupByMode::kHash ||
            shape->gby != nullptr || shape->select != nullptr) {
          return Status::NotImplemented("vectorization: group-by shape");
        }
        shape->gby = next;
        break;
      case OpKind::kReduceSink:
      case OpKind::kFileSink:
        shape->terminal = next;
        return Status::OK();
      default:
        return Status::NotImplemented(
            std::string("vectorization: unsupported operator ") +
            exec::OpKindName(next->kind));
    }
    cur = next;
  }
}

}  // namespace

Status RunVectorizedMapPipeline(const exec::OpDesc* scan_root,
                                const TypePtr& schema,
                                formats::FormatKind format,
                                const mr::InputSplit& split,
                                exec::TaskContext* ctx) {
  // ---- Validation (the §6.4 vectorization-optimizer check).
  if (format != formats::FormatKind::kOrcFile || schema == nullptr) {
    return Status::NotImplemented("vectorization requires ORC input");
  }
  PipelineShape shape;
  MINIHIVE_RETURN_IF_ERROR(ValidateShape(scan_root, &shape));
  if (shape.gby != nullptr && shape.terminal->kind != OpKind::kReduceSink) {
    return Status::NotImplemented("vectorized group-by must feed a shuffle");
  }

  // Projected fields and the full-width -> batch position mapping.
  std::vector<int> projected = scan_root->scan_projection;
  if (projected.empty()) {
    for (int i = 0; i < scan_root->table_width; ++i) projected.push_back(i);
  }
  const auto& fields = schema->children();
  std::vector<TypeKind> batch_types;
  std::vector<int> mapping(fields.size(), -1);
  for (size_t p = 0; p < projected.size(); ++p) {
    int field = projected[p];
    if (field < 0 || field >= static_cast<int>(fields.size()) ||
        !IsPrimitive(fields[field]->kind())) {
      return Status::NotImplemented("vectorization: non-primitive column");
    }
    mapping[field] = static_cast<int>(p);
    batch_types.push_back(fields[field]->kind());
  }

  // ---- Compile filters, projections, aggregation.
  BatchCompiler compiler(batch_types);
  // Compiled filters stay grouped per Filter descriptor so profiling can
  // attribute selectivity to the plan operator they came from.
  struct CompiledFilterGroup {
    exec::OperatorStats* stats = nullptr;
    std::vector<std::unique_ptr<VectorFilter>> filters;
  };
  std::vector<CompiledFilterGroup> filter_groups;
  for (const OpDesc* f : shape.filters) {
    MINIHIVE_ASSIGN_OR_RETURN(
        auto compiled,
        compiler.CompileFilter(f->predicate->RemapColumns(mapping)));
    CompiledFilterGroup group;
    if (ctx->profile != nullptr) group.stats = ctx->profile->ForOp(f);
    for (auto& filter : compiled) group.filters.push_back(std::move(filter));
    filter_groups.push_back(std::move(group));
  }
  std::vector<std::unique_ptr<VectorExpression>> expressions;
  std::vector<int> select_columns;  // Batch columns of select outputs.
  std::vector<TypeKind> select_types;
  if (shape.select != nullptr) {
    for (const ExprPtr& e : shape.select->projections) {
      int out;
      MINIHIVE_ASSIGN_OR_RETURN(
          auto compiled,
          compiler.CompileProjection(*e->RemapColumns(mapping), &out));
      expressions.push_back(std::move(compiled));
      select_columns.push_back(out);
      select_types.push_back(e->result_type());
    }
  }
  std::vector<int> key_columns;
  std::vector<TypeKind> key_types;
  std::vector<VectorHashAggregator::AggSpec> specs;
  if (shape.gby != nullptr) {
    for (const ExprPtr& e : shape.gby->group_keys) {
      int out;
      MINIHIVE_ASSIGN_OR_RETURN(
          auto compiled,
          compiler.CompileProjection(*e->RemapColumns(mapping), &out));
      expressions.push_back(std::move(compiled));
      key_columns.push_back(out);
      key_types.push_back(e->result_type());
    }
    for (const AggDesc& agg : shape.gby->aggs) {
      VectorHashAggregator::AggSpec spec;
      spec.kind = agg.kind;
      if (agg.arg != nullptr) {
        int out;
        MINIHIVE_ASSIGN_OR_RETURN(
            auto compiled,
            compiler.CompileProjection(*agg.arg->RemapColumns(mapping), &out));
        expressions.push_back(std::move(compiled));
        spec.arg_column = out;
        spec.sums_double = IsFloatingFamily(agg.arg->result_type()) ||
                           agg.kind == AggKind::kAvg;
      } else if (agg.kind != AggKind::kCountStar) {
        return Status::NotImplemented("aggregate without argument");
      }
      specs.push_back(spec);
    }
  }
  std::unique_ptr<VectorizedRowBatch> batch =
      MakeBatchFor(compiler.column_types(), kDefaultBatchSize);
  std::unique_ptr<VectorHashAggregator> aggregator;
  if (shape.gby != nullptr) {
    aggregator = std::make_unique<VectorHashAggregator>(
        *batch, std::move(key_columns), std::move(key_types),
        std::move(specs));
  }

  // ---- Terminal: reuse the row-mode operator (ReduceSink / FileSink).
  exec::OperatorArena arena;
  MINIHIVE_ASSIGN_OR_RETURN(exec::Operator * terminal,
                            exec::BuildOperatorTree(shape.terminal, &arena));
  MINIHIVE_RETURN_IF_ERROR(terminal->Init(ctx));

  // ---- Read batches through the vectorized ORC reader (§6.5).
  orc::OrcReadOptions read_options;
  read_options.projected_fields = projected;
  read_options.sarg = scan_root->sarg.get();
  read_options.split_offset = split.offset;
  read_options.split_length = split.length;
  read_options.reader_host = split.locality_host;
  read_options.governor = ctx->governor;
  read_options.enable_late_materialization = ctx->enable_late_materialization;
  read_options.delete_bitmap =
      FindDeleteBitmap(ctx->delete_bitmaps, split.path);
  MINIHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<orc::OrcReader> reader,
      orc::OrcReader::Open(ctx->fs, split.path, read_options));

  // Per-operator profiling slots (EnableProfiling); null when off.
  exec::OperatorStats* scan_stats = nullptr;
  exec::OperatorStats* select_stats = nullptr;
  exec::OperatorStats* gby_stats = nullptr;
  if (ctx->profile != nullptr) {
    scan_stats = ctx->profile->ForOp(scan_root);
    if (shape.select != nullptr) select_stats = ctx->profile->ForOp(shape.select);
    if (shape.gby != nullptr) gby_stats = ctx->profile->ForOp(shape.gby);
  }
  constexpr auto kRelaxed = std::memory_order_relaxed;

  Row row;
  while (true) {
    // Batch-boundary cancellation point (the reader also checks per index
    // group, but filtering/aggregation below runs outside the reader).
    if (ctx->governor != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(ctx->governor->CheckAlive());
    }
    MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextBatch(batch.get()));
    if (!more) break;
    if (ctx->counters != nullptr) {
      ctx->counters->map_input_records += batch->size;
    }
    if (scan_stats != nullptr) {
      scan_stats->batches.fetch_add(1, kRelaxed);
      scan_stats->rows_in.fetch_add(batch->size, kRelaxed);
      scan_stats->rows_out.fetch_add(batch->size, kRelaxed);
    }
    for (auto& group : filter_groups) {
      if (group.stats != nullptr) {
        group.stats->batches.fetch_add(1, kRelaxed);
        group.stats->rows_in.fetch_add(batch->SelectedCount(), kRelaxed);
      }
      for (auto& filter : group.filters) {
        filter->Filter(batch.get());
        if (batch->selected_in_use && batch->selected_size == 0) break;
      }
      if (group.stats != nullptr) {
        group.stats->rows_out.fetch_add(batch->SelectedCount(), kRelaxed);
      }
      if (batch->selected_in_use && batch->selected_size == 0) break;
    }
    if (batch->selected_in_use && batch->selected_size == 0) continue;
    for (auto& expression : expressions) expression->Evaluate(batch.get());
    if (select_stats != nullptr) {
      select_stats->batches.fetch_add(1, kRelaxed);
      select_stats->rows_in.fetch_add(batch->SelectedCount(), kRelaxed);
      select_stats->rows_out.fetch_add(batch->SelectedCount(), kRelaxed);
    }
    if (aggregator != nullptr) {
      if (gby_stats != nullptr) {
        gby_stats->batches.fetch_add(1, kRelaxed);
        gby_stats->rows_in.fetch_add(batch->SelectedCount(), kRelaxed);
      }
      aggregator->Update(*batch);
      continue;
    }
    // Materialize surviving rows for the terminal operator.
    int n = batch->SelectedCount();
    for (int j = 0; j < n; ++j) {
      int i = batch->selected_in_use ? batch->selected[j] : j;
      row.clear();
      if (shape.select != nullptr) {
        for (size_t c = 0; c < select_columns.size(); ++c) {
          row.push_back(
              BoxValue(*batch, select_columns[c], i, select_types[c]));
        }
      } else {
        // Full-width row: non-projected fields are NULL.
        row.assign(fields.size(), Value::Null());
        for (size_t p = 0; p < projected.size(); ++p) {
          row[projected[p]] =
              BoxValue(*batch, static_cast<int>(p), i, batch_types[p]);
        }
      }
      MINIHIVE_RETURN_IF_ERROR(terminal->Process(row, 0));
    }
  }
  if (aggregator != nullptr) {
    MINIHIVE_RETURN_IF_ERROR(aggregator->Emit([&](const Row& partial) {
      if (gby_stats != nullptr) gby_stats->rows_out.fetch_add(1, kRelaxed);
      return terminal->Process(partial, 0);
    }));
  }
  return terminal->Finish();
}

}  // namespace minihive::vec
