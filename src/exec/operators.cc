#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/bytes.h"

namespace minihive::exec {

std::string FinalPartName(const std::string& prefix,
                          const std::string& task_suffix) {
  return prefix + "/part-" + task_suffix;
}

std::string AttemptPartName(const std::string& prefix,
                            const std::string& task_suffix, int attempt) {
  // The "_attempt" prefix sorts before "part-" and is deleted on abort, so
  // consumers listing `prefix + "/part-"` only ever see committed output.
  return prefix + "/_attempt-" + std::to_string(attempt) + "-" + task_suffix;
}

namespace {

void AppendKeyBytes(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back(0);
  } else if (v.is_int()) {
    out->push_back(1);
    PutVarintSigned64(out, v.AsInt());
  } else if (v.is_double()) {
    const double d = v.AsDouble();
    if (std::isnan(d)) {
      // Every NaN is one key, as Value::Compare finds them equal.
      out->push_back(2);
      PutDoubleBits(out, std::numeric_limits<double>::quiet_NaN());
    } else if (d == static_cast<int64_t>(d)) {
      // Integral doubles serialize like ints so 3 == 3.0 joins correctly.
      out->push_back(1);
      PutVarintSigned64(out, static_cast<int64_t>(d));
    } else {
      out->push_back(2);
      PutDoubleBits(out, d);
    }
  } else if (v.is_string()) {
    out->push_back(3);
    PutLengthPrefixed(out, v.AsString());
  } else {
    out->push_back(4);
    PutLengthPrefixed(out, v.ToString());
  }
}

}  // namespace

std::string SerializeKey(const Row& key) {
  std::string out;
  for (const Value& v : key) AppendKeyBytes(v, &out);
  return out;
}

OperatorStats* PipelineProfile::ForOp(const OpDesc* desc) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(desc->id);
  if (it == stats_.end()) {
    it = stats_.emplace(desc->id, std::make_unique<OperatorStats>()).first;
    labels_[desc->id] =
        std::string(OpKindName(desc->kind)) + "#" + std::to_string(desc->id);
  }
  return it->second.get();
}

std::vector<PipelineProfile::Entry> PipelineProfile::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(stats_.size());
  for (const auto& [id, stats] : stats_) {
    Entry entry;
    entry.op_id = id;
    auto label_it = labels_.find(id);
    if (label_it != labels_.end()) entry.label = label_it->second;
    entry.rows_in = stats->rows_in.load(std::memory_order_relaxed);
    entry.rows_out = stats->rows_out.load(std::memory_order_relaxed);
    entry.batches = stats->batches.load(std::memory_order_relaxed);
    entry.nanos = stats->nanos.load(std::memory_order_relaxed);
    out.push_back(std::move(entry));
  }
  return out;
}

void PipelineProfile::AttachToSpan(telemetry::Span* parent) const {
  if (parent == nullptr) return;
  for (const Entry& entry : Snapshot()) {
    telemetry::Span* op_span = parent->StartChild("op:" + entry.label);
    op_span->SetAttr("rows_in", entry.rows_in);
    op_span->SetAttr("rows_out", entry.rows_out);
    if (entry.batches > 0) op_span->SetAttr("batches", entry.batches);
    op_span->set_duration_nanos(entry.nanos);
  }
}

Status Operator::Init(TaskContext* ctx) {
  // Shared nodes (below a Mux) are reached from several parents; Init once.
  if (init_done_) return Status::OK();
  init_done_ = true;
  ctx_ = ctx;
  if (ctx->profile != nullptr) stats_ = ctx->profile->ForOp(desc_);
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->Init(ctx));
  }
  return Status::OK();
}

Status Operator::StartGroup() {
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->StartGroup());
  }
  return Status::OK();
}

Status Operator::EndGroup() {
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->EndGroup());
  }
  return Status::OK();
}

Status Operator::Finish() {
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->Finish());
  }
  return Status::OK();
}

namespace {

// ---------------------------------------------------------------- TableScan

/// Pass-through pipeline root; the task runtime reads the split and pushes
/// rows into it.
class TableScanOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    return ForwardRow(row, tag);
  }
};

// ---------------------------------------------------------------- Filter

class FilterOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    Value v = desc_->predicate->Eval(row);
    if (!v.is_null() && v.AsBool()) {
      return ForwardRow(row, tag);
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------- Select

class SelectOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    Row out;
    out.reserve(desc_->projections.size());
    for (const ExprPtr& e : desc_->projections) {
      out.push_back(e->Eval(row));
    }
    return ForwardRow(out, tag);
  }
};

// ---------------------------------------------------------------- Limit

class LimitOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    if (desc_->limit >= 0 && seen_ >= desc_->limit) return Status::OK();
    ++seen_;
    return ForwardRow(row, tag);
  }

 private:
  int64_t seen_ = 0;
};

// ---------------------------------------------------------------- GroupBy

class GroupByOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    group_buffers_.reserve(desc_->aggs.size());
    for (const AggDesc& agg : desc_->aggs) {
      group_buffers_.emplace_back(&agg);
    }
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    if (desc_->group_by_mode == GroupByMode::kHash) {
      Row key;
      key.reserve(desc_->group_keys.size());
      for (const ExprPtr& e : desc_->group_keys) key.push_back(e->Eval(row));
      std::string key_bytes = SerializeKey(key);
      auto it = hash_.find(key_bytes);
      if (it == hash_.end()) {
        HashEntry entry;
        entry.key = std::move(key);
        for (const AggDesc& agg : desc_->aggs) {
          entry.buffers.emplace_back(&agg);
        }
        it = hash_.emplace(std::move(key_bytes), std::move(entry)).first;
      }
      for (AggBuffer& buffer : it->second.buffers) buffer.Update(row);
      if (desc_->gby_max_hash_entries > 0 &&
          hash_.size() >= static_cast<size_t>(desc_->gby_max_hash_entries)) {
        // Memory-bounded partial aggregation: emit the partials downstream
        // and start over. Downstream (the shuffle, then the combiner/reduce
        // merge) re-aggregates the duplicates this creates.
        MINIHIVE_RETURN_IF_ERROR(FlushHash());
      }
      return Status::OK();
    }
    // Streaming (reduce-side) modes.
    if (!group_open_) {
      return Status::Internal("GroupBy row outside a group");
    }
    if (!have_key_) {
      group_key_.clear();
      if (desc_->group_by_mode == GroupByMode::kMergePartial) {
        group_key_.assign(row.begin(), row.begin() + desc_->partial_offset);
      } else {
        for (const ExprPtr& e : desc_->group_keys) {
          group_key_.push_back(e->Eval(row));
        }
      }
      have_key_ = true;
    }
    if (desc_->group_by_mode == GroupByMode::kMergePartial) {
      int offset = desc_->partial_offset;
      for (size_t i = 0; i < group_buffers_.size(); ++i) {
        group_buffers_[i].Merge(row, offset);
        offset += desc_->aggs[i].PartialArity();
      }
    } else {
      for (AggBuffer& buffer : group_buffers_) buffer.Update(row);
    }
    return Status::OK();
  }

  Status StartGroup() override {
    if (desc_->group_by_mode != GroupByMode::kHash) {
      group_open_ = true;
      have_key_ = false;
      for (AggBuffer& buffer : group_buffers_) buffer.Reset();
    }
    return Operator::StartGroup();
  }

  Status EndGroup() override {
    if (desc_->group_by_mode == GroupByMode::kHash) {
      if (desc_->gby_flush_on_end_group) {
        MINIHIVE_RETURN_IF_ERROR(FlushHash());
      }
      return Operator::EndGroup();
    }
    if (group_open_) {
      if (have_key_) {
        Row out = group_key_;
        for (AggBuffer& buffer : group_buffers_) buffer.EmitFinal(&out);
        MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
        emitted_any_ = true;
      }
      group_open_ = false;
    }
    return Operator::EndGroup();
  }

  Status Finish() override {
    // A keyless (global) final aggregation that saw no input still emits
    // its SQL-mandated single row (COUNT(*) over empty input is 0).
    if (desc_->group_by_mode == GroupByMode::kMergePartial &&
        desc_->partial_offset == 0 && !emitted_any_) {
      Row out;
      for (AggBuffer& buffer : group_buffers_) {
        buffer.Reset();
        buffer.EmitFinal(&out);
      }
      MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
      emitted_any_ = true;
    }
    if (desc_->group_by_mode == GroupByMode::kHash) {
      // Hash (map-side partial) flush. With no group keys, emit a partial
      // row even for empty input so global aggregates see zero counts —
      // but not in grouped (flush-per-group) contexts.
      if (hash_.empty() && desc_->group_keys.empty() &&
          !desc_->gby_flush_on_end_group) {
        Row out;
        std::vector<AggBuffer> buffers;
        for (const AggDesc& agg : desc_->aggs) buffers.emplace_back(&agg);
        for (AggBuffer& buffer : buffers) buffer.EmitPartial(&out);
        MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
      }
      MINIHIVE_RETURN_IF_ERROR(FlushHash());
    }
    return Operator::Finish();
  }

  Status FlushHash() {
    for (auto& [bytes, entry] : hash_) {
      Row out = entry.key;
      for (AggBuffer& buffer : entry.buffers) buffer.EmitPartial(&out);
      MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
    }
    hash_.clear();
    return Status::OK();
  }

 private:
  struct HashEntry {
    Row key;
    std::vector<AggBuffer> buffers;
  };
  std::unordered_map<std::string, HashEntry> hash_;
  // Streaming state.
  std::vector<AggBuffer> group_buffers_;
  Row group_key_;
  bool group_open_ = false;
  bool have_key_ = false;
  bool emitted_any_ = false;
};

// ---------------------------------------------------------------- Join

/// Reduce-side (common) join: buffers each tag's rows within a key group
/// and emits the combination at the group end. Input rows are
/// key-prefixed; output is key ++ values(tag 0) ++ values(tag 1) ++ ...
class JoinOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    buffers_.resize(desc_->join_num_inputs);
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    if (tag < 0 || tag >= desc_->join_num_inputs) {
      return Status::Internal("join tag out of range");
    }
    if (!have_key_) {
      group_key_.assign(row.begin(), row.begin() + desc_->join_key_width);
      have_key_ = true;
    }
    buffers_[tag].emplace_back(row.begin() + desc_->join_key_width,
                               row.end());
    return Status::OK();
  }

  Status StartGroup() override {
    for (auto& buffer : buffers_) buffer.clear();
    have_key_ = false;
    return Operator::StartGroup();
  }

  Status EndGroup() override {
    if (have_key_) {
      MINIHIVE_RETURN_IF_ERROR(EmitJoined());
    }
    for (auto& buffer : buffers_) buffer.clear();
    have_key_ = false;
    return Operator::EndGroup();
  }

 private:
  Status EmitJoined() {
    // Inner sides with no rows produce nothing; left-outer sides with no
    // rows contribute one all-NULL row.
    std::vector<const std::vector<Row>*> sides(buffers_.size());
    std::vector<Row> null_rows(buffers_.size());
    std::vector<std::vector<Row>> null_holder(buffers_.size());
    for (size_t t = 0; t < buffers_.size(); ++t) {
      if (buffers_[t].empty()) {
        JoinSideKind side = t < desc_->join_sides.size()
                                ? desc_->join_sides[t]
                                : JoinSideKind::kInner;
        if (side == JoinSideKind::kInner) return Status::OK();
        int width = t < desc_->join_value_widths.size()
                        ? desc_->join_value_widths[t]
                        : 0;
        null_holder[t].push_back(Row(width, Value::Null()));
        sides[t] = &null_holder[t];
      } else {
        sides[t] = &buffers_[t];
      }
    }
    Row out = group_key_;
    return EmitCross(sides, 0, &out);
  }

  Status EmitCross(const std::vector<const std::vector<Row>*>& sides,
                   size_t tag, Row* out) {
    if (tag == sides.size()) {
      if (desc_->join_residual != nullptr) {
        Value v = desc_->join_residual->Eval(*out);
        if (v.is_null() || !v.AsBool()) return Status::OK();
      }
      return ForwardRow(*out);
    }
    size_t base = out->size();
    for (const Row& row : *sides[tag]) {
      out->insert(out->end(), row.begin(), row.end());
      MINIHIVE_RETURN_IF_ERROR(EmitCross(sides, tag + 1, out));
      out->resize(base);
    }
    return Status::OK();
  }

  std::vector<std::vector<Row>> buffers_;
  Row group_key_;
  bool have_key_ = false;
};

// ---------------------------------------------------------------- MapJoin

class MapJoinOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    if (ctx->mapjoin_tables == nullptr) {
      return Status::Internal("map join tables not provided");
    }
    auto it = ctx->mapjoin_tables->find(desc_->id);
    if (it == ctx->mapjoin_tables->end()) {
      return Status::Internal("map join tables missing for op " +
                              std::to_string(desc_->id));
    }
    tables_ = it->second.get();
    if (tables_->size() != desc_->mapjoin_small_sides.size()) {
      return Status::Internal("map join tables do not match its small sides");
    }
    for (const auto& side : desc_->mapjoin_small_sides) {
      if (side.build_keys.size() != desc_->mapjoin_probe_keys.size()) {
        return Status::Internal("map join build and probe key arity differ");
      }
    }
    matches_.resize(tables_->size());
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    // Output layout mirrors the reduce join this operator replaced:
    // keys ++ values(tag 0) ++ values(tag 1) ++ ... with the big side's
    // values at mapjoin_big_tag. Every small side shares the probe key
    // tuple, so it is evaluated and serialized once per row; a NULL probe
    // key never matches (inner) / pads (outer). A row an inner side drops
    // costs no value evaluation.
    out_.clear();
    key_bytes_.clear();
    bool null_key = false;
    for (const ExprPtr& e : desc_->mapjoin_probe_keys) {
      out_.push_back(e->Eval(row));
      if (out_.back().is_null()) null_key = true;
      AppendKeyBytes(out_.back(), &key_bytes_);
    }
    for (size_t s = 0; s < matches_.size(); ++s) {
      matches_[s] = nullptr;
      if (!null_key) {
        const auto& rows = (*tables_)[s]->rows;
        auto it = rows.find(std::string_view(key_bytes_));
        if (it != rows.end() && !it->second.empty()) matches_[s] = &it->second;
      }
      if (matches_[s] == nullptr &&
          desc_->mapjoin_small_sides[s].side == JoinSideKind::kInner) {
        return Status::OK();
      }
    }
    return Expand(row, /*next_tag=*/0, /*side_index=*/0);
  }

 private:
  /// Emits one output row per combination of small-side matches, walking
  /// tag slots in order so the layout matches the original reduce join.
  Status Expand(const Row& big_row, int next_tag, size_t side_index) {
    const int total_tags = static_cast<int>(matches_.size()) + 1;
    if (next_tag == total_tags) return ForwardRow(out_);
    const size_t base = out_.size();
    if (next_tag == desc_->mapjoin_big_tag) {
      for (const ExprPtr& e : desc_->mapjoin_big_values) {
        out_.push_back(e->Eval(big_row));
      }
      MINIHIVE_RETURN_IF_ERROR(Expand(big_row, next_tag + 1, side_index));
      out_.resize(base);
      return Status::OK();
    }
    const std::vector<Row>* matches = matches_[side_index];
    if (matches == nullptr) {
      out_.insert(out_.end(),
                  desc_->mapjoin_small_sides[side_index].build_values.size(),
                  Value::Null());
      MINIHIVE_RETURN_IF_ERROR(Expand(big_row, next_tag + 1, side_index + 1));
      out_.resize(base);
      return Status::OK();
    }
    for (const Row& match : *matches) {
      out_.insert(out_.end(), match.begin(), match.end());
      MINIHIVE_RETURN_IF_ERROR(Expand(big_row, next_tag + 1, side_index + 1));
      out_.resize(base);
    }
    return Status::OK();
  }

  const MapJoinTables* tables_ = nullptr;
  // Per-row scratch, reused across rows.
  Row out_;
  std::string key_bytes_;
  std::vector<const std::vector<Row>*> matches_;  // Per small side.
};

// ---------------------------------------------------------------- ReduceSink

class ReduceSinkOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    if (ctx->emitter == nullptr) {
      return Status::Internal("ReduceSink without a shuffle emitter");
    }
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    Row key;
    key.reserve(desc_->sink_keys.size());
    for (const ExprPtr& e : desc_->sink_keys) key.push_back(e->Eval(row));
    Row value;
    value.reserve(desc_->sink_values.size());
    for (const ExprPtr& e : desc_->sink_values) value.push_back(e->Eval(row));
    return ctx_->emitter->Emit(std::move(key), std::move(value),
                               desc_->sink_tag);
  }
};

// ---------------------------------------------------------------- FileSink

class FileSinkOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    if (writer_ == nullptr) {
      // Lazy creation: tasks that produce no rows write no file.
      const formats::FileFormat* format =
          formats::GetFileFormat(desc_->sink_format);
      formats::WriterOptions options;
      options.compression = desc_->sink_compression;
      std::string path = AttemptPartName(desc_->sink_path_prefix,
                                         ctx_->task_suffix, ctx_->attempt);
      MINIHIVE_ASSIGN_OR_RETURN(
          writer_, format->CreateWriter(ctx_->fs, path, desc_->sink_schema,
                                        options));
    }
    return writer_->AddRow(row);
  }

  Status Finish() override {
    if (writer_ != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(writer_->Close());
      writer_.reset();
    }
    return Operator::Finish();
  }

 private:
  std::unique_ptr<formats::FileWriter> writer_;
};

// ---------------------------------------------------------------- Demux

/// Reduce-phase entry for correlation-optimized plans (paper Figure 5):
/// restores original tags and dispatches rows to the right child pipeline.
class DemuxOperator : public Operator {
 public:
  using Operator::Operator;

  Status DoProcess(const Row& row, int tag) override {
    if (tag < 0 || static_cast<size_t>(tag) >= desc_->demux_routes.size()) {
      return Status::Internal("demux: unknown new tag " + std::to_string(tag));
    }
    for (const OpDesc::DemuxRoute& route : desc_->demux_routes[tag]) {
      MINIHIVE_RETURN_IF_ERROR(
          children_[route.child_index]->Process(row, route.old_tag));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------- Mux

/// Multi-parent funnel in front of a reduce-side GroupBy or Join in a
/// correlation-optimized plan. Coordinates group signals: the child sees
/// StartGroup/EndGroup only after every parent delivered the signal, at
/// which point the child flushes its group state (paper §5.2.2).
class MuxOperator : public Operator {
 public:
  using Operator::Operator;

  void set_num_parents(int n) { num_parents_ = n; }

  Status ProcessFrom(int parent_index, const Row& row, int tag) {
    // Rows arrive through per-edge proxies, bypassing the base Process
    // wrapper; count them against the shared mux core here.
    if (stats_ != nullptr) {
      stats_->rows_in.fetch_add(1, std::memory_order_relaxed);
    }
    int out_tag = tag;
    if (static_cast<size_t>(parent_index) < desc_->mux_parent_tags.size() &&
        desc_->mux_parent_tags[parent_index] >= 0) {
      out_tag = desc_->mux_parent_tags[parent_index];
    }
    return ForwardRow(row, out_tag);
  }

  Status DoProcess(const Row& row, int tag) override {
    // Direct Process means a single-parent Mux.
    return ProcessFrom(0, row, tag);
  }

  Status StartGroup() override {
    if (++start_count_ < num_parents_) return Status::OK();
    start_count_ = 0;
    return Operator::StartGroup();
  }

  Status EndGroup() override {
    if (++end_count_ < num_parents_) return Status::OK();
    end_count_ = 0;
    return Operator::EndGroup();
  }

  Status Finish() override {
    if (++finish_count_ < num_parents_) return Status::OK();
    finish_count_ = 0;
    return Operator::Finish();
  }

 private:
  int num_parents_ = 1;
  int start_count_ = 0;
  int end_count_ = 0;
  int finish_count_ = 0;
};

/// Edge proxy giving MuxOperator the identity of the calling parent.
class MuxInputProxy : public Operator {
 public:
  MuxInputProxy(const OpDesc* desc, MuxOperator* mux, int parent_index)
      : Operator(desc), mux_(mux), parent_index_(parent_index) {}

  Status Init(TaskContext* ctx) override {
    ctx_ = ctx;
    return mux_->Init(ctx);
  }

  Status DoProcess(const Row& row, int tag) override {
    return mux_->ProcessFrom(parent_index_, row, tag);
  }
  Status StartGroup() override { return mux_->StartGroup(); }
  Status EndGroup() override { return mux_->EndGroup(); }
  Status Finish() override { return mux_->Finish(); }

 private:
  MuxOperator* mux_;
  int parent_index_;
};

// ---------------------------------------------------------------- builder

struct BuildState {
  OperatorArena* arena;
  std::unordered_map<const OpDesc*, Operator*> built;
  /// Edges already wired per (parent, mux child) pair, so repeated edges
  /// between the same pair resolve to successive parent slots.
  std::map<std::pair<const OpDesc*, const OpDesc*>, int> mux_edges_built;
};

/// The parent slot of `parent` within `child`'s parents list, honouring
/// duplicates: the n-th edge from the same parent takes the n-th slot.
int ParentSlot(const OpDesc* parent, const OpDesc* child, int nth) {
  int seen = 0;
  for (size_t i = 0; i < child->parents.size(); ++i) {
    if (child->parents[i] == parent) {
      if (seen == nth) return static_cast<int>(i);
      ++seen;
    }
  }
  return -1;
}

Result<Operator*> BuildNode(const OpDesc* desc, BuildState* state);

Status BuildChildren(const OpDesc* desc, Operator* op, BuildState* state) {
  for (const OpDescPtr& child : desc->children) {
    if (child->kind == OpKind::kMux) {
      // Each parent edge gets its own proxy carrying the parent slot, which
      // indexes mux_parent_tags and the signal-coordination counters.
      MINIHIVE_ASSIGN_OR_RETURN(Operator * mux_core, BuildNode(child.get(),
                                                               state));
      int nth = state->mux_edges_built[{desc, child.get()}]++;
      int parent_index = ParentSlot(desc, child.get(), nth);
      if (parent_index < 0) {
        return Status::Internal("mux parent edge not found in plan");
      }
      auto proxy = std::make_unique<MuxInputProxy>(
          child.get(), static_cast<MuxOperator*>(mux_core), parent_index);
      op->AddChild(state->arena->Add(std::move(proxy)));
    } else {
      MINIHIVE_ASSIGN_OR_RETURN(Operator * built, BuildNode(child.get(),
                                                            state));
      op->AddChild(built);
    }
  }
  return Status::OK();
}

Result<Operator*> BuildNode(const OpDesc* desc, BuildState* state) {
  auto it = state->built.find(desc);
  if (it != state->built.end()) return it->second;
  std::unique_ptr<Operator> op;
  switch (desc->kind) {
    case OpKind::kTableScan:
      op = std::make_unique<TableScanOperator>(desc);
      break;
    case OpKind::kFilter:
      op = std::make_unique<FilterOperator>(desc);
      break;
    case OpKind::kSelect:
      op = std::make_unique<SelectOperator>(desc);
      break;
    case OpKind::kLimit:
      op = std::make_unique<LimitOperator>(desc);
      break;
    case OpKind::kGroupBy:
      op = std::make_unique<GroupByOperator>(desc);
      break;
    case OpKind::kJoin:
      op = std::make_unique<JoinOperator>(desc);
      break;
    case OpKind::kMapJoin:
      op = std::make_unique<MapJoinOperator>(desc);
      break;
    case OpKind::kReduceSink:
      op = std::make_unique<ReduceSinkOperator>(desc);
      break;
    case OpKind::kFileSink:
      op = std::make_unique<FileSinkOperator>(desc);
      break;
    case OpKind::kDemux:
      op = std::make_unique<DemuxOperator>(desc);
      break;
    case OpKind::kMux: {
      auto mux = std::make_unique<MuxOperator>(desc);
      mux->set_num_parents(static_cast<int>(desc->parents.size()));
      op = std::move(mux);
      break;
    }
  }
  Operator* raw = state->arena->Add(std::move(op));
  state->built[desc] = raw;
  // A ReduceSink ends the map-side pipeline: its children belong to the
  // downstream job's reduce phase and are built there, not here.
  if (desc->kind != OpKind::kReduceSink) {
    MINIHIVE_RETURN_IF_ERROR(BuildChildren(desc, raw, state));
  }
  return raw;
}

}  // namespace

Result<Operator*> BuildOperatorTree(
    const OpDesc* desc, OperatorArena* arena,
    std::unordered_map<const OpDesc*, Operator*>* built) {
  BuildState state;
  state.arena = arena;
  MINIHIVE_ASSIGN_OR_RETURN(Operator * root, BuildNode(desc, &state));
  if (built != nullptr) *built = state.built;
  return root;
}

Result<std::shared_ptr<MapJoinTables>> BuildMapJoinTables(
    dfs::FileSystem* fs, const OpDesc& desc, const TableResolver& resolve,
    const QueryContext* query, uint64_t memory_budget_bytes) {
  auto tables = std::make_shared<MapJoinTables>();
  uint64_t total_bytes = 0;
  uint64_t rows_scanned = 0;
  // Charges the build's reads to the query's metrics scope.
  TaskGovernor governor(query);
  for (const auto& side : desc.mapjoin_small_sides) {
    MINIHIVE_ASSIGN_OR_RETURN(SmallTableSource source,
                              resolve(side.table_name));
    auto table = std::make_shared<MapJoinHashTable>();
    const formats::FileFormat* format = formats::GetFileFormat(source.format);
    for (const std::string& path : source.paths) {
      formats::ReadOptions options;
      options.projected_columns = side.projection;
      options.delete_bitmap = FindDeleteBitmap(&source.delete_bitmaps, path);
      options.governor = &governor;
      MINIHIVE_ASSIGN_OR_RETURN(
          std::unique_ptr<formats::RowReader> reader,
          format->OpenReader(fs, path, source.schema, options));
      Row row;
      while (true) {
        if (query != nullptr && (++rows_scanned & 511u) == 0) {
          MINIHIVE_RETURN_IF_ERROR(query->CheckAlive());
        }
        MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
        if (!more) break;
        if (side.build_filter != nullptr) {
          Value v = side.build_filter->Eval(row);
          if (v.is_null() || !v.AsBool()) continue;
        }
        Row key;
        key.reserve(side.build_keys.size());
        for (const ExprPtr& e : side.build_keys) key.push_back(e->Eval(row));
        Row value;
        value.reserve(side.build_values.size());
        for (const ExprPtr& e : side.build_values) {
          value.push_back(e->Eval(row));
        }
        uint64_t row_bytes = mr::EstimateRowBytes(key) +
                             mr::EstimateRowBytes(value) + 32;
        table->approx_bytes += row_bytes;
        total_bytes += row_bytes;
        // Enforced while building, not after: the guard exists precisely so
        // an oversized build side cannot balloon memory before being caught.
        if (memory_budget_bytes > 0 && total_bytes > memory_budget_bytes) {
          return Status::ResourceExhausted(
              "map-join hash table for " + side.table_name + " exceeds the " +
              std::to_string(memory_budget_bytes) +
              "-byte memory budget (build aborted at " +
              std::to_string(total_bytes) + " bytes)");
        }
        // Session mode: the build also charges the query's slice of the
        // unified accounting tree, in chunks (one CAS per ~256 KiB grown).
        // Exhaustion is the same determinate ResourceExhausted as above, so
        // the driver's reduce-join fallback handles both uniformly.
        if (query != nullptr && query->memory_budget() != nullptr) {
          MINIHIVE_RETURN_IF_ERROR(table->reservation.CoverAtLeast(
              query->memory_budget(), table->approx_bytes));
        }
        table->rows[SerializeKey(key)].push_back(std::move(value));
      }
    }
    tables->push_back(std::move(table));
  }
  return tables;
}

}  // namespace minihive::exec
