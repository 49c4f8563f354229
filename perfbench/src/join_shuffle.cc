#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/session.h"
#include "datagen/tpcds.h"
#include "workload.h"

namespace perfbench {

using mh::Result;
using mh::Row;
using mh::Status;
using mh::Value;

namespace {

constexpr uint64_t kStoreSalesRows = 25000;
constexpr int kJoinClients = 2;
/// Small DFS blocks so a block cache below the fact table's size still
/// holds whole blocks (each of the 8 cache shards needs two).
constexpr uint64_t kJoinBlockBytes = 16 * 1024;

// ---------------------------------------------------------------------------
// join_shuffle: TPC-DS star schema (ORC, no codec), two clients sharing one
// SessionManager, each alternating Q27 and the Q95 shape with every §5/§6
// switch on. The shared block cache is half the fact table's stored size.
// ---------------------------------------------------------------------------

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

class JoinShuffle : public Workload {
 public:
  explicit JoinShuffle(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    drivers_.clear();
    sessions_.clear();
    manager_.reset();
    catalog_.reset();
    mh::dfs::FileSystemOptions fs_options;
    fs_options.block_size = kJoinBlockBytes;
    fs_ = std::make_unique<mh::dfs::FileSystem>(fs_options);
    catalog_ = std::make_unique<mh::ql::Catalog>(fs_.get());
    MINIHIVE_RETURN_IF_ERROR(
        mh::datagen::LoadTpcds(catalog_.get(), "tpcds", TpcdsOptions()));
    return Status::OK();
  }

  Status Prepare(LoopRecorder* rec, RunOutput* out) override {
    // Reference answers: one run per shape with map-join conversion,
    // Map-only merge, the Correlation Optimizer and vectorization all off.
    {
      mh::ql::DriverOptions plain = ReplayOptions();
      plain.mapjoin_conversion = false;
      plain.merge_maponly_jobs = false;
      plain.correlation_optimizer = false;
      plain.vectorized_execution = false;
      mh::ql::Driver reference(fs_.get(), catalog_.get(), plain);
      for (const Shape& shape : Shapes()) {
        MINIHIVE_ASSIGN_OR_RETURN(mh::ql::QueryResult r,
                                  reference.Execute(shape.sql));
        expected_[shape.name] = r.rows;
      }
    }
    uint64_t raw = 0;
    const mh::datagen::TpcdsOptions options = TpcdsOptions();
    for (uint64_t i = 0; i < kStoreSalesRows; ++i) {
      raw += RawBytes(mh::datagen::TpcdsStoreSalesRow(i, options));
    }
    raw_fact_bytes_ = raw;

    MINIHIVE_ASSIGN_OR_RETURN(const mh::ql::TableDesc* fact,
                              catalog_->GetTable("tpcds_store_sales"));
    fact_bytes_ = catalog_->TableBytes(*fact);
    mh::SessionManagerOptions manager_options;
    manager_options.num_workers = Workers();
    manager_options.block_cache_bytes = fact_bytes_ / 2;
    manager_ = std::make_unique<mh::SessionManager>(manager_options);
    for (int c = 0; c < kJoinClients; ++c) {
      sessions_.push_back(manager_->NewSession("client" + std::to_string(c)));
      mh::ql::DriverOptions options = ReplayOptions();
      options.session = sessions_.back().get();
      drivers_.push_back(std::make_unique<mh::ql::Driver>(
          fs_.get(), catalog_.get(), options));
    }
    out->notes.push_back(
        "store_sales: " + std::to_string(kStoreSalesRows) + " rows, " +
        std::to_string(fact_bytes_) +
        " bytes stored (ORC, no codec); shared block cache " +
        std::to_string(manager_options.block_cache_bytes) + " bytes, DFS block " +
        std::to_string(kJoinBlockBytes) + " bytes; pool " +
        std::to_string(Workers()) + " workers, " +
        std::to_string(kJoinClients) + " clients");
    Tracer off(false);
    for (int c = 0; c < kJoinClients; ++c) {
      for (const Shape& shape : Shapes()) {
        RunQuery(drivers_[c].get(), shape.name, shape.sql,
                 Expect(expected_[shape.name]), rec, &off, nullptr, 0);
      }
    }
    return Status::OK();
  }

  Status Loop(double seconds, LoopRecorder* rec, Tracer* tracer,
              ProgramTotals* program) override {
    const LoopClock clock(seconds);
    const std::vector<Shape> shapes = Shapes();
    std::atomic<uint64_t> next_request{1};
    std::vector<std::thread> clients;
    for (int c = 0; c < kJoinClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c);
             clock.Running(rec->reads_done() >= kMinReads); ++i) {
          const Shape& shape = shapes[i % shapes.size()];
          RunQuery(drivers_[c].get(), shape.name, shape.sql,
                   Expect(expected_.at(shape.name)), rec, tracer, program,
                   next_request.fetch_add(1));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    return Status::OK();
  }

  void SetProfiling(bool on) override {
    for (auto& d : drivers_) d->options().enable_profiling = on;
  }

  std::vector<Shape> Shapes() const override {
    return {{"q27", kQ27}, {"q95", kQ95}};
  }

  mh::ql::DriverOptions ReplayOptions() const override {
    mh::ql::DriverOptions options;
    options.mapjoin_conversion = true;
    // Dimensions (tens of KB) qualify for map joins, the fact table (about
    // 1 MB) does not.
    options.mapjoin_threshold_bytes = 256 << 10;
    options.merge_maponly_jobs = true;
    options.correlation_optimizer = true;
    options.vectorized_execution = true;
    options.num_workers = Workers();
    // One split per file: the small DFS blocks exist for the cache only.
    options.split_size = 64ULL << 20;
    return options;
  }

  mh::dfs::FileSystem* fs() override { return fs_.get(); }
  mh::ql::Catalog* catalog() override { return catalog_.get(); }

  double StoredBytesPerUserByte() override {
    return Ratio(static_cast<double>(fact_bytes_),
                 static_cast<double>(raw_fact_bytes_));
  }

  Status WorkloadMetrics(const LoopRecorder& rec, double, RunOutput* out) override {
    for (const char* shape : {"q27", "q95"}) {
      const std::vector<double> s = rec.Samples(shape);
      out->workload_metrics.push_back({std::string(shape) + "_p50_ms",
                                       Median(s).value_or(0), "ms", s.size()});
    }
    return Status::OK();
  }

  Result<std::pair<double, uint64_t>> WriterReplay() override {
    const mh::datagen::TpcdsOptions options = TpcdsOptions();
    std::vector<Row> rows;
    for (uint64_t i = 0; i < kWriterSampleRows; ++i) {
      rows.push_back(mh::datagen::TpcdsStoreSalesRow(i, options));
    }
    return TimeOrcWrite(fs_.get(), mh::datagen::TpcdsStoreSalesSchema(),
                        mh::codec::CompressionKind::kNone, rows);
  }

 private:
  mh::datagen::TpcdsOptions TpcdsOptions() const {
    mh::datagen::TpcdsOptions options;
    options.store_sales_rows = kStoreSalesRows;
    options.num_files = 4;
    options.format = mh::formats::FormatKind::kOrcFile;
    options.compression = mh::codec::CompressionKind::kNone;
    options.seed = seed_;
    return options;
  }

  const uint64_t seed_;
  uint64_t fact_bytes_ = 0;
  uint64_t raw_fact_bytes_ = 0;
  std::map<std::string, std::vector<Row>> expected_;
  std::unique_ptr<mh::dfs::FileSystem> fs_;
  std::unique_ptr<mh::ql::Catalog> catalog_;
  std::unique_ptr<mh::SessionManager> manager_;
  std::vector<std::unique_ptr<mh::Session>> sessions_;
  std::vector<std::unique_ptr<mh::ql::Driver>> drivers_;
};

}  // namespace

std::unique_ptr<Workload> MakeJoinShuffle(uint64_t seed) {
  return std::make_unique<JoinShuffle>(seed);
}

}  // namespace perfbench
