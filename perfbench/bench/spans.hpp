#pragma once
// Spans recorded by the benchmark around its calls into each layer's
// public functions (nothing is instrumented inside the library). Each
// span has a name, start, end, its own id, its parent's id and a
// request id shared by every span of one operation. Spans stay in
// memory and are written as Chrome-trace JSON when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "bench/stats.hpp"

namespace perfbench {

inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  double begin_us = 0.0;
  double end_us = 0.0;

  double dur_us() const { return end_us - begin_us; }
};

class SpanRecorder {
 public:
  std::uint64_t next_id() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }

  void add(const SpanRecord& s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }

  /// Copy of every span recorded so far (call once the workers stopped).
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint64_t> next_{1};
};

/// RAII span; a no-op (id 0) when the recorder is null, so untimed and
/// timed code paths are the same code.
class Span {
 public:
  Span(SpanRecorder* rec, const char* name, std::uint64_t parent,
       std::uint64_t request)
      : rec_(rec) {
    if (!rec_) return;
    s_.name = name;
    s_.id = rec_->next_id();
    s_.parent = parent;
    s_.request = request;
    s_.begin_us = now_us();
  }
  ~Span() {
    if (!rec_) return;
    s_.end_us = now_us();
    rec_->add(s_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return s_.id; }

 private:
  SpanRecorder* rec_;
  SpanRecord s_;
};

/// Durations (us) of every span called `name`.
inline std::vector<double> durations(const std::vector<SpanRecord>& spans,
                                     const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (name == s.name) out.push_back(s.dur_us());
  }
  return out;
}

/// Self time (us) of every span called `name`: its duration minus the
/// union of its direct children.
inline std::vector<double> self_times(const std::vector<SpanRecord>& spans,
                                      const std::string& name) {
  std::map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back({s.begin_us, s.end_us});
    }
  }
  std::vector<double> out;
  for (const auto& s : spans) {
    if (name != s.name) continue;
    const auto it = children.find(s.id);
    out.push_back(self_time({s.begin_us, s.end_us},
                            it == children.end() ? std::vector<Interval>{}
                                                 : it->second));
  }
  return out;
}

/// Chrome trace_event JSON ("X" complete events; ids in args).
inline void write_chrome_trace(std::ostream& os,
                               const std::vector<SpanRecord>& spans) {
  double t0 = 0.0;
  for (const auto& s : spans) {
    if (t0 == 0.0 || s.begin_us < t0) t0 = s.begin_us;
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << (s.begin_us - t0) << ",\"dur\":" << s.dur_us()
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace perfbench
