#pragma once

// In-memory span recorder for the traced benchmark run. Spans are recorded by
// the benchmark's own code around calls into each library layer; nothing in
// the library is instrumented. Every benchmark thread owns one SpanLog::Lane
// and appends to it without locking; spans are kept in memory and written out
// once, when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;   ///< index of the parent span in the same lane
  uint64_t request = 0;  ///< spans of one request share this id
};

class SpanLog {
 public:
  /// One thread's spans. Parents are always spans of the same lane, so self
  /// time can be computed per lane.
  class Lane {
   public:
    int64_t Begin(const char* name, int64_t parent, uint64_t request) {
      spans_.push_back(Span{name, NowNs(), 0, parent, request});
      return static_cast<int64_t>(spans_.size() - 1);
    }
    void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

   private:
    friend class SpanLog;
    std::vector<Span> spans_;
  };

  /// RAII span; a null lane records nothing (the untraced path).
  class Scope {
   public:
    Scope(Lane* lane, const char* name, int64_t parent = -1,
          uint64_t request = 0)
        : lane_(lane),
          id_(lane == nullptr ? -1 : lane->Begin(name, parent, request)) {}
    ~Scope() {
      if (lane_ != nullptr) lane_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Lane* lane_;
    int64_t id_;
  };

  /// A new lane for one thread; the log keeps ownership.
  Lane* NewLane() {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(std::make_unique<Lane>());
    return lanes_.back().get();
  }

  /// Durations (ns) of every finished span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& lane : lanes_) {
      for (const Span& s : lane->spans_) {
        if (s.end_ns != 0 && name == s.name) {
          out.push_back(static_cast<double>(s.end_ns - s.start_ns));
        }
      }
    }
    return out;
  }

  /// Self time of every span of one lane: its duration minus the part of it
  /// covered by the union of its children's intervals.
  static std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns != 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
      }
    }
    std::vector<uint64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      uint64_t covered = 0;
      uint64_t reach = s.start_ns;
      for (const auto& [begin, end] : kids) {
        const uint64_t b = std::max(begin, reach);
        const uint64_t e = std::min(end, s.end_ns);
        if (e > b) covered += e - b;
        reach = std::max(reach, e);
      }
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  /// Writes every span as one tab-separated line (lane, index, parent,
  /// request, name, start, end, self; times in ns) followed by a per-name
  /// summary. Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    struct Totals {
      uint64_t count = 0;
      uint64_t total_ns = 0;
      uint64_t self_ns = 0;
    };
    std::map<std::string, Totals> summary;
    std::fprintf(f, "lane\tspan\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
    for (size_t l = 0; l < lanes_.size(); ++l) {
      const std::vector<Span>& spans = lanes_[l]->spans_;
      const std::vector<uint64_t> self = SelfTimes(spans);
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.end_ns == 0) continue;
        std::fprintf(f, "%zu\t%zu\t%lld\t%llu\t%s\t%llu\t%llu\t%llu\n", l, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(self[i]));
        Totals& t = summary[s.name];
        ++t.count;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self[i];
      }
    }
    std::fprintf(f, "# summary: name\tcount\ttotal_ms\tself_ms\n");
    for (const auto& [name, t] : summary) {
      std::fprintf(f, "# %s\t%llu\t%.3f\t%.3f\n", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   static_cast<double>(t.total_ns) / 1e6,
                   static_cast<double>(t.self_ns) / 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mutex_;  ///< guards lanes_ (the list, not the spans)
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace perfbench
