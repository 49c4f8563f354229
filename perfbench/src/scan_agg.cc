#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "datagen/tpch.h"
#include "workload.h"

namespace perfbench {

using mh::Result;
using mh::Row;
using mh::Status;
using mh::Value;

namespace {

constexpr uint64_t kLineitemRows = 300000;
constexpr int kLineitemFiles = 4;
constexpr int64_t kMaxPartkey = 20000;  // datagen::TpchLineitemRow's range.

// ---------------------------------------------------------------------------
// scan_agg: TPC-H lineitem (ORC + FastLz, 4 files), one vectorized Driver,
// one client cycling Q1 -> Q6 -> point lookup.
// ---------------------------------------------------------------------------

const char kQ1[] =
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_base_price, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
    "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
    "FROM tpch_lineitem WHERE l_shipdate <= 10471 "
    "GROUP BY l_returnflag, l_linestatus";
const char kQ6[] =
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM tpch_lineitem "
    "WHERE l_shipdate BETWEEN 8766 AND 9131 "
    "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

std::string PointSql(int64_t partkey) {
  return "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, "
         "l_shipinstruct, l_shipmode, l_comment FROM tpch_lineitem "
         "WHERE l_partkey = " +
         std::to_string(partkey);
}

class ScanAgg : public Workload {
 public:
  explicit ScanAgg(uint64_t seed)
      : seed_(seed), keys_(seed ^ 0x706f696e74ULL) {}

  Status Setup() override {
    driver_.reset();
    catalog_.reset();
    fs_ = std::make_unique<mh::dfs::FileSystem>();
    catalog_ = std::make_unique<mh::ql::Catalog>(fs_.get());
    mh::datagen::TpchOptions options;
    options.lineitem_rows = kLineitemRows;
    options.orders_rows = 1000;
    options.num_files = kLineitemFiles;
    options.format = mh::formats::FormatKind::kOrcFile;
    options.compression = mh::codec::CompressionKind::kFastLz;
    options.seed = seed_;
    MINIHIVE_RETURN_IF_ERROR(mh::datagen::LoadTpch(catalog_.get(), "tpch",
                                                   options));
    driver_ = std::make_unique<mh::ql::Driver>(fs_.get(), catalog_.get(),
                                               ReplayOptions());
    return Status::OK();
  }

  Status Prepare(LoopRecorder* rec, RunOutput* out) override {
    ref_ = std::make_unique<LineitemReference>(kLineitemRows, seed_);
    MINIHIVE_ASSIGN_OR_RETURN(const mh::ql::TableDesc* table,
                              catalog_->GetTable("tpch_lineitem"));
    out->notes.push_back(
        "lineitem: " + std::to_string(kLineitemRows) + " rows, " +
        std::to_string(catalog_->TableBytes(*table)) +
        " bytes stored (ORC + FastLz, " + std::to_string(kLineitemFiles) +
        " files); block cache " +
        std::to_string(ReplayOptions().block_cache_bytes) + " bytes");
    Tracer off(false);
    for (int i = 0; i < 3; ++i) Step(rec, &off, nullptr, 0);
    return Status::OK();
  }

  Status Loop(double seconds, LoopRecorder* rec, Tracer* tracer,
              ProgramTotals* program) override {
    const LoopClock clock(seconds);
    for (uint64_t request = 1; clock.Running(rec->reads_done() >= kMinReads);
         ++request) {
      Step(rec, tracer, program, request);
    }
    return Status::OK();
  }

  void SetProfiling(bool on) override {
    driver_->options().enable_profiling = on;
  }

  std::vector<Shape> Shapes() const override {
    return {{"q1", kQ1}, {"q6", kQ6}, {"point", PointSql(point_key_for_replay_)}};
  }

  mh::ql::DriverOptions ReplayOptions() const override {
    mh::ql::DriverOptions options;
    options.vectorized_execution = true;
    options.num_workers = Workers();
    return options;
  }

  mh::dfs::FileSystem* fs() override { return fs_.get(); }
  mh::ql::Catalog* catalog() override { return catalog_.get(); }

  double StoredBytesPerUserByte() override {
    const mh::ql::TableDesc* table = *catalog_->GetTable("tpch_lineitem");
    return Ratio(static_cast<double>(catalog_->TableBytes(*table)),
                 static_cast<double>(ref_->raw_bytes()));
  }

  Status WorkloadMetrics(const LoopRecorder& rec, double, RunOutput* out) override {
    for (const char* shape : {"q1", "q6", "point"}) {
      const std::vector<double> s = rec.Samples(shape);
      out->workload_metrics.push_back({std::string(shape) + "_p50_ms",
                                       Median(s).value_or(0), "ms", s.size()});
    }
    return Status::OK();
  }

  Result<std::pair<double, uint64_t>> WriterReplay() override {
    std::vector<Row> rows;
    for (uint64_t i = 0; i < kWriterSampleRows; ++i) {
      rows.push_back(mh::datagen::TpchLineitemRow(i, seed_));
    }
    return TimeOrcWrite(fs_.get(), mh::datagen::TpchLineitemSchema(),
                        mh::codec::CompressionKind::kFastLz, rows);
  }

 private:
  void Step(LoopRecorder* rec, Tracer* tracer, ProgramTotals* program,
            uint64_t request) {
    switch (step_++ % 3) {
      case 0:
        RunQuery(driver_.get(), "q1", kQ1, Expect(ref_->q1()), rec, tracer,
                 program, request);
        break;
      case 1:
        RunQuery(driver_.get(), "q6", kQ6, Expect(ref_->q6()), rec, tracer,
                 program, request);
        break;
      default: {
        const int64_t key = keys_.Range(1, kMaxPartkey);
        if (point_key_for_replay_ == 0) point_key_for_replay_ = key;
        RunQuery(driver_.get(), "point", PointSql(key),
                 Expect(ref_->Point(key)), rec, tracer, program, request);
      }
    }
  }

  const uint64_t seed_;
  mh::Random keys_;
  uint64_t step_ = 0;
  int64_t point_key_for_replay_ = 0;
  std::unique_ptr<mh::dfs::FileSystem> fs_;
  std::unique_ptr<mh::ql::Catalog> catalog_;
  std::unique_ptr<mh::ql::Driver> driver_;
  std::unique_ptr<LineitemReference> ref_;
};

}  // namespace

std::unique_ptr<Workload> MakeScanAgg(uint64_t seed) {
  return std::make_unique<ScanAgg>(seed);
}

}  // namespace perfbench
