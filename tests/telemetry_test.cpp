// Tests for the telemetry subsystem: concurrent counter/histogram
// exactness, snapshot label round-trips, registry kind checking, span
// tracing + Chrome trace_event export, the injectable log sink, and the
// IonDaemon integration (telemetry counters == legacy stats() view).

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "fwd/daemon.hpp"
#include "fwd/pfs_backend.hpp"
#include "fwd/wait_slot.hpp"
#include "gkfs/chunk.hpp"
#include "telemetry/telemetry.hpp"

namespace iofa::telemetry {
namespace {

// --- metrics ----------------------------------------------------------

TEST(Counter, ConcurrentAddsAreExact) {
  Registry reg;
  auto& ctr = reg.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) ctr.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ctr.value(), kThreads * kPerThread);
}

TEST(Counter, WeightedAdds) {
  Registry reg;
  auto& ctr = reg.counter("test.bytes");
  ctr.add(100);
  ctr.add(23);
  EXPECT_EQ(ctr.value(), 123u);
}

TEST(Gauge, SetAndAdd) {
  Registry reg;
  auto& g = reg.gauge("test.depth");
  g.set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 6.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(BucketSpec, EdgesAndOwnership) {
  const BucketSpec spec{1.0, 8};
  EXPECT_EQ(spec.bucket_of(0.0), 0u);     // below lo clamps to 0
  EXPECT_EQ(spec.bucket_of(0.5), 0u);
  EXPECT_EQ(spec.bucket_of(1.0), 0u);     // [1, 2)
  EXPECT_EQ(spec.bucket_of(1.99), 0u);
  EXPECT_EQ(spec.bucket_of(2.0), 1u);     // [2, 4)
  EXPECT_EQ(spec.bucket_of(1024.0), 7u);  // open top bucket
  EXPECT_EQ(spec.bucket_of(1.0e12), 7u);
  EXPECT_DOUBLE_EQ(spec.bucket_lo(0), 0.0);  // catch-all [0, 2*lo)
  EXPECT_DOUBLE_EQ(spec.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(spec.bucket_lo(3), 8.0);
  EXPECT_DOUBLE_EQ(spec.bucket_hi(3), 16.0);
}

TEST(Histogram, ConcurrentObservationsAreExact) {
  Registry reg;
  auto& h = reg.histogram("test.lat_us", BucketSpec::latency_us());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t + 1));  // integral: sum stays exact
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  // sum of t+1 for t in [0,8) is 36, times kPerThread.
  EXPECT_DOUBLE_EQ(h.sum(), 36.0 * kPerThread);
}

TEST(Histogram, QuantilesAreOrderedAndBracketed) {
  Registry reg;
  auto& h = reg.histogram("test.q", BucketSpec{1.0, 16});
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const auto snap = reg.snapshot();
  const auto* s = snap.find("test.q");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->histogram.has_value());
  const auto& hs = *s->histogram;
  EXPECT_EQ(hs.count, 1000u);
  const double p50 = hs.quantile(0.5);
  const double p90 = hs.quantile(0.9);
  const double p99 = hs.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // p50 of 1..1000 is ~500; log2 buckets bound it to [256, 1024).
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 1024.0);
  EXPECT_NEAR(hs.mean(), 500.5, 1e-9);
}

TEST(Registry, LabelRoundTripIsOrderInsensitive) {
  Registry reg;
  reg.counter("fwd.ops", {{"ion", "3"}, {"app", "IOR"}}).add(7);
  // Same instance regardless of label order at lookup or registration.
  EXPECT_EQ(reg.counter("fwd.ops", {{"app", "IOR"}, {"ion", "3"}}).value(),
            7u);
  EXPECT_EQ(reg.size(), 1u);

  const auto snap = reg.snapshot();
  const auto* s = snap.find("fwd.ops", {{"ion", "3"}, {"app", "IOR"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::Counter);
  EXPECT_DOUBLE_EQ(s->value, 7.0);
  // Labels come back canonically sorted by key.
  ASSERT_EQ(s->labels.size(), 2u);
  EXPECT_EQ(s->labels[0].first, "app");
  EXPECT_EQ(s->labels[1].first, "ion");
}

TEST(Registry, DistinctLabelsAreDistinctInstances) {
  Registry reg;
  reg.counter("x", {{"ion", "0"}}).add(1);
  reg.counter("x", {{"ion", "1"}}).add(2);
  reg.counter("x").add(4);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("x", {{"ion", "0"}}).value(), 1u);
  EXPECT_EQ(reg.counter("x", {{"ion", "1"}}).value(), 2u);
  EXPECT_EQ(reg.counter("x").value(), 4u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("metric.a");
  EXPECT_THROW(reg.gauge("metric.a"), std::logic_error);
  EXPECT_THROW(reg.histogram("metric.a", BucketSpec::latency_us()),
               std::logic_error);
  reg.gauge("metric.b");
  EXPECT_THROW(reg.counter("metric.b"), std::logic_error);
}

TEST(Registry, SnapshotIsSorted) {
  Registry reg;
  reg.counter("zzz");
  reg.counter("aaa");
  reg.gauge("mmm");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "aaa");
  EXPECT_EQ(snap.samples[1].name, "mmm");
  EXPECT_EQ(snap.samples[2].name, "zzz");
}

// --- tracing ----------------------------------------------------------

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.instant("x", "test");
  { ScopedSpan span(tracer, "y", "test"); }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, SpansNestOnOneThread) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_thread_name("main");
  {
    ScopedSpan outer(tracer, "outer", "test");
    {
      ScopedSpan inner(tracer, "inner", "test", "arg", 42);
    }
    tracer.instant("tick", "test");
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);  // sorted by ts: inner, tick, outer? No -
  // events are ts-sorted; inner starts after outer, so outer comes first.
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* tick = nullptr;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "outer") outer = &ev;
    if (std::string(ev.name) == "inner") inner = &ev;
    if (std::string(ev.name) == "tick") tick = &ev;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  EXPECT_EQ(inner->phase, 'X');
  EXPECT_EQ(tick->phase, 'i');
  // Proper nesting: inner is contained in [outer.ts, outer.ts+dur].
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  EXPECT_EQ(inner->arg, 42);
  EXPECT_STREQ(inner->arg_name, "arg");
  // All on the same (named) thread track.
  EXPECT_EQ(outer->tid, inner->tid);
  const auto names = tracer.thread_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0].second, "main");
  EXPECT_EQ(names[0].first, outer->tid);
}

TEST(Tracer, ThreadsGetDistinctTracks) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("a", "test");
  std::uint32_t other_tid = 0;
  std::thread([&] {
    tracer.instant("b", "test");
    for (const auto& ev : tracer.events()) {
      if (std::string(ev.name) == "b") other_tid = ev.tid;
    }
  }).join();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  std::uint32_t tid_a = 0;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "a") tid_a = ev.tid;
  }
  EXPECT_NE(tid_a, other_tid);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// Minimal structural JSON validator: enough to prove the exporter emits
// well-formed JSON (balanced containers, quoted strings, legal tokens).
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
      return number();
    return literal("true") || literal("false") || literal("null");
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) == 0) { pos_ += n; return true; }
    return false;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  std::string s_;
  std::size_t pos_ = 0;
};

TEST(Export, ChromeTraceJsonParsesAndNests) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_thread_name("worker \"0\"");  // exercise escaping
  {
    ScopedSpan outer(tracer, "outer", "test");
    ScopedSpan inner(tracer, "inner", "test", "bytes", 4096);
  }
  std::ostringstream os;
  write_chrome_trace(tracer, os);
  const std::string json = os.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread name
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  // The quote in the thread name must be escaped.
  EXPECT_NE(json.find("worker \\\"0\\\""), std::string::npos);
}

TEST(Export, MetricsJsonAndCsvAreWellFormed) {
  Registry reg;
  reg.counter("fwd.ion.requests", {{"ion", "0"}}).add(12);
  reg.gauge("core.arbiter.pool").set(12.0);
  reg.histogram("fwd.ion.lat_us", BucketSpec::latency_us()).observe(399.0);

  std::ostringstream js;
  write_json(reg.snapshot(), js);
  EXPECT_TRUE(JsonChecker(js.str()).valid()) << js.str();
  EXPECT_NE(js.str().find("fwd.ion.requests"), std::string::npos);

  std::ostringstream cs;
  write_csv(reg.snapshot(), cs);
  // Header plus one line per metric.
  std::string line;
  std::istringstream is(cs.str());
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 1u + reg.size());

  // The table renders every metric too.
  const auto table = to_table(reg.snapshot());
  std::ostringstream ts;
  table.print(ts);
  EXPECT_NE(ts.str().find("core.arbiter.pool"), std::string::npos);
}

// --- log sink ---------------------------------------------------------

TEST(LogSink, InjectableSinkReceivesTimestampedMessages) {
  struct Captured {
    LogLevel level;
    double ts;
    std::string msg;
  };
  std::vector<Captured> got;
  set_log_sink([&](LogLevel level, double ts, std::string_view msg) {
    got.push_back({level, ts, std::string(msg)});
  });
  const LogLevel before = log_level();
  set_log_level(LogLevel::Info);
  log_info("hello ", 42);
  log_debug("dropped: below the level");
  set_log_level(before);
  set_log_sink(nullptr);  // restore stderr default

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].level, LogLevel::Info);
  EXPECT_EQ(got[0].msg, "hello 42");
  // Timestamp comes from the shared monotonic clock: non-negative and
  // consistent with "now".
  EXPECT_GE(got[0].ts, 0.0);
  EXPECT_LE(got[0].ts, monotonic_seconds() + 1.0);
  EXPECT_STREQ(log_level_name(LogLevel::Warn), "WARN");
}

// --- IonDaemon integration -------------------------------------------

fwd::FwdRequest make_write(const std::string& path, std::uint64_t offset,
                           std::size_t n) {
  fwd::FwdRequest req;
  req.op = fwd::FwdOp::Write;
  req.path = path;
  req.file_id = gkfs::hash_path(path);
  req.offset = offset;
  req.size = n;
  req.payload =
      iofa::Payload::wrap(std::make_shared<std::vector<std::byte>>(n));
  return req;
}

TEST(IonDaemonTelemetry, CountersMatchLegacyStats) {
  Registry reg;
  fwd::PfsParams pp;
  pp.write_bandwidth = 4.0e9;
  pp.read_bandwidth = 4.0e9;
  pp.op_overhead = 4 * KiB;
  pp.contention_coeff = 0.0;
  fwd::EmulatedPfs pfs(pp);

  fwd::IonParams ip;
  ip.ingest_bandwidth = 4.0e9;
  ip.op_overhead = 4 * KiB;
  ip.scheduler.kind = agios::SchedulerKind::Fifo;
  ip.registry = &reg;
  fwd::IonDaemon daemon(7, ip, pfs);

  constexpr int kWrites = 32;
  constexpr std::size_t kBytes = 4096;
  std::vector<std::shared_ptr<fwd::WaitSlot>> slots;
  for (int i = 0; i < kWrites; ++i) {
    auto req = make_write("/t", i * kBytes, kBytes);
    slots.push_back(fwd::wait_on(req));
    ASSERT_TRUE(daemon.submit(std::move(req)));
  }
  for (auto& s : slots) EXPECT_EQ(s->wait().value, kBytes);
  daemon.drain();

  const auto stats = daemon.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(stats.bytes_in, kWrites * kBytes);
  EXPECT_EQ(stats.bytes_flushed, kWrites * kBytes);

  // The registry view agrees with the compat view: this daemon was born
  // with a fresh registry, so baselines are zero and values are equal.
  const Labels ion{{"ion", "7"}};
  EXPECT_EQ(reg.counter("fwd.ion.requests", ion).value(), stats.requests);
  EXPECT_EQ(reg.counter("fwd.ion.bytes_in", ion).value(), stats.bytes_in);
  EXPECT_EQ(reg.counter("fwd.ion.bytes_flushed", ion).value(),
            stats.bytes_flushed);
  EXPECT_EQ(reg.counter("fwd.ion.dispatches", ion).value(),
            stats.dispatches);

  const auto snap = reg.snapshot();
  const auto* lat = snap.find("fwd.ion.request_latency_us", ion);
  ASSERT_NE(lat, nullptr);
  ASSERT_TRUE(lat->histogram.has_value());
  EXPECT_EQ(lat->histogram->count,
            static_cast<std::uint64_t>(kWrites));  // one sample per part

  daemon.shutdown();
}

TEST(IonDaemonTelemetry, StatsViewIsPerDaemonDespiteSharedRegistry) {
  // Two daemons with the same id sharing one registry: the registry
  // counters accumulate, but each daemon's stats() starts from zero.
  Registry reg;
  fwd::PfsParams pp;
  pp.write_bandwidth = 4.0e9;
  pp.read_bandwidth = 4.0e9;
  pp.op_overhead = 4 * KiB;
  pp.contention_coeff = 0.0;
  fwd::EmulatedPfs pfs(pp);

  fwd::IonParams ip;
  ip.ingest_bandwidth = 4.0e9;
  ip.op_overhead = 4 * KiB;
  ip.scheduler.kind = agios::SchedulerKind::Fifo;
  ip.registry = &reg;

  {
    fwd::IonDaemon first(0, ip, pfs);
    auto req = make_write("/a", 0, 1024);
    auto slot = fwd::wait_on(req);
    ASSERT_TRUE(first.submit(std::move(req)));
    EXPECT_TRUE(slot->wait().ok());
    first.drain();
    EXPECT_EQ(first.stats().requests, 1u);
    first.shutdown();
  }

  fwd::IonDaemon second(0, ip, pfs);
  EXPECT_EQ(second.stats().requests, 0u);  // not 1: baseline subtracted
  EXPECT_EQ(reg.counter("fwd.ion.requests", {{"ion", "0"}}).value(), 1u);
  second.shutdown();
}

}  // namespace
}  // namespace iofa::telemetry
