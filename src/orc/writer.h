#ifndef MINIHIVE_ORC_WRITER_H_
#define MINIHIVE_ORC_WRITER_H_

#include <memory>
#include <string>

#include "codec/codec.h"
#include "common/result.h"
#include "common/types.h"
#include "common/value.h"
#include "dfs/file_system.h"
#include "orc/memory_manager.h"

namespace minihive::orc {

struct OrcWriterOptions {
  /// Target stripe size (uncompressed buffered bytes). The paper's default
  /// is 256 MB on a 512 MB-block HDFS; MiniHive scales both by 8x down
  /// (32 MB stripes on 64 MB blocks) so laptop-sized datasets still span
  /// multiple stripes.
  uint64_t stripe_size = 32 * 1024 * 1024;
  /// Rows per index group (paper default 10000).
  uint64_t row_index_stride = 10000;
  /// Streams are compressed in units of codec::kDefaultCompressionUnitSize.
  codec::CompressionKind compression = codec::CompressionKind::kNone;
  /// Use dictionary encoding for a string column when
  /// distinct/total <= this threshold (paper default 0.8).
  double dictionary_key_ratio = 0.8;
  /// Pad so every stripe lies within a single DFS block (paper §4.1,
  /// optional stripe/block alignment).
  bool align_stripes_to_blocks = false;
  /// When set, this writer registers its stripe size and honours the scaled
  /// effective stripe size (paper §4.4).
  MemoryManager* memory_manager = nullptr;
};

/// Writes one ORC file. The writer is type-aware: it decomposes complex
/// columns into child columns (paper Table 1), buffers a whole stripe in
/// memory, chooses per-column encodings at stripe flush time (including the
/// dictionary-vs-direct decision for strings), and records statistics at
/// index-group, stripe, and file level.
class OrcWriter {
 public:
  static Result<std::unique_ptr<OrcWriter>> Create(
      dfs::FileSystem* fs, const std::string& path, TypePtr schema,
      OrcWriterOptions options = OrcWriterOptions());

  ~OrcWriter();
  OrcWriter(const OrcWriter&) = delete;
  OrcWriter& operator=(const OrcWriter&) = delete;

  Status AddRow(const Row& row);
  Status Close();

  uint64_t rows_written() const;
  /// Approximate bytes currently buffered for the open stripe.
  uint64_t buffered_bytes() const;
  /// Stripes flushed so far.
  uint64_t stripes_written() const;

 private:
  class Impl;
  explicit OrcWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace minihive::orc

#endif  // MINIHIVE_ORC_WRITER_H_
