#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(std::string name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_nanos = now;
}

int64_t Tracer::Add(std::string name, int64_t start_nanos, int64_t end_nanos,
                    int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_nanos, end_nanos, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfNanos(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_nanos, s.end_nanos});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_nanos;
    const int64_t hi = spans[i].end_nanos;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  const std::vector<int64_t> self = SelfNanos(spans);
  minihive::json::Writer writer;
  writer.BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    writer.BeginObject();
    writer.Key("name");
    writer.String(spans[i].name);
    writer.Key("start_ns");
    writer.Int(spans[i].start_nanos);
    writer.Key("end_ns");
    writer.Int(spans[i].end_nanos);
    writer.Key("parent");
    writer.Int(spans[i].parent);
    writer.Key("request");
    writer.UInt(spans[i].request);
    writer.Key("self_ns");
    writer.Int(self[i]);
    writer.EndObject();
  }
  writer.EndArray();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& text = writer.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
