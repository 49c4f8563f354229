// Ablation for §4.3's codec choice (the paper offers ZLIB / Snappy / LZO):
// compression ratio versus compress/decompress throughput for our two LZ
// effort points, over the three workloads' characteristic byte streams.

#include <cstdio>

#include "bench/bench_util.h"
#include "codec/codec.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/ssdb.h"
#include "datagen/tpch.h"
#include "serde/serde.h"

namespace minihive {
namespace {

using bench::Check;
using bench::Fmt;
using bench::Mb;
using bench::TablePrinter;

std::string TextPayload(const std::function<Row(uint64_t)>& gen,
                        const TypePtr& schema, int rows) {
  serde::TextSerDe serde(schema);
  std::string out;
  for (int i = 0; i < rows; ++i) {
    Check(serde.Serialize(gen(i), &out), "serialize");
    out.push_back('\n');
  }
  return out;
}

int Main() {
  std::printf("=== Ablation: general-purpose codec choice (paper §4.3) "
              "===\n\n");

  datagen::SsdbOptions ssdb;
  datagen::TpchOptions tpch;
  struct Payload {
    std::string name;
    std::string data;
  };
  std::vector<Payload> payloads;
  payloads.push_back(
      {"SS-DB rows", TextPayload([&](uint64_t i) {
         return datagen::SsdbCycleRow(i, ssdb);
       }, datagen::SsdbCycleSchema(), 120000)});
  payloads.push_back(
      {"TPC-H lineitem rows", TextPayload([&](uint64_t i) {
         return datagen::TpchLineitemRow(i, tpch.seed);
       }, datagen::TpchLineitemSchema(), 60000)});
  {
    Random rng(3);
    std::string random_bytes;
    for (int i = 0; i < 4 << 20; ++i) {
      random_bytes.push_back(static_cast<char>(rng.Next()));
    }
    payloads.push_back({"incompressible bytes", std::move(random_bytes)});
  }

  bench::BenchReporter reporter("ablation_codec");
  TablePrinter table({"payload", "codec", "ratio", "compress MB/s",
                      "decompress MB/s"});
  for (const Payload& payload : payloads) {
    for (auto kind : {codec::CompressionKind::kFastLz,
                      codec::CompressionKind::kDeepLz}) {
      const codec::Codec* codec = codec::GetCodec(kind);
      std::string compressed;
      Stopwatch cw;
      Check(codec->Compress(payload.data, &compressed), "compress");
      double cms = cw.ElapsedMillis();
      std::string restored;
      Stopwatch dw;
      Check(codec->Decompress(compressed, payload.data.size(), &restored),
            "decompress");
      double dms = dw.ElapsedMillis();
      if (restored != payload.data) {
        std::fprintf(stderr, "round trip mismatch\n");
        return 1;
      }
      double mb = payload.data.size() / (1024.0 * 1024.0);
      table.AddRow({payload.name, codec->name(),
                    Fmt(static_cast<double>(payload.data.size()) /
                        compressed.size(), 2),
                    Fmt(mb / (cms / 1000.0), 0),
                    Fmt(mb / (dms / 1000.0), 0)});
      std::string prefix = std::string(codec->name()) + "." + payload.name;
      for (char& c : prefix) {
        if (c == ' ') c = '_';
      }
      reporter.AddMetric(prefix + ".raw_bytes",
                         static_cast<double>(payload.data.size()), "bytes");
      reporter.AddMetric(prefix + ".compressed_bytes",
                         static_cast<double>(compressed.size()), "bytes");
      reporter.AddMetric(prefix + ".compress_ms", cms, "ms");
      reporter.AddMetric(prefix + ".decompress_ms", dms, "ms");
    }
  }
  table.Print();
  reporter.Write();
  std::printf("expected: DeepLz trades compression speed for ratio (the "
              "ZLIB-vs-Snappy tradeoff); incompressible data stays ~1.0x "
              "at near-memcpy decompress speed.\n");
  return 0;
}

}  // namespace
}  // namespace minihive

int main() { return minihive::Main(); }
