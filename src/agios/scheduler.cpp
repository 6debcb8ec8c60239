#include "agios/scheduler.hpp"

#include "agios/aggregation.hpp"
#include "agios/aioli.hpp"
#include "agios/fifo.hpp"
#include "agios/mlf.hpp"
#include "agios/quantum.hpp"
#include "agios/sjf.hpp"
#include "agios/twins.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::agios {

namespace {

/// TO-AGG: maximum size of a merged access.
constexpr std::uint64_t kMaxAggregate = 32ULL * 1024 * 1024;
/// SJF: a request older than this is served regardless of size.
constexpr Seconds kAgingLimit = 0.050;
/// TWINS: window length per data server, and the PFS data servers it
/// rotates over.
constexpr Seconds kTwinsWindow = 0.001;
constexpr int kDataServers = 2;
/// HBRR: byte quantum per file queue per round.
constexpr std::uint64_t kHbrrQuantum = 8ULL * 1024 * 1024;
/// aIOLi: starting quantum (doubles while a stream stays sequential),
/// its ceiling, and how long a broken stream waits for its successor.
constexpr std::uint64_t kAioliBaseQuantum = 512ULL * 1024;
constexpr std::uint64_t kAioliMaxQuantum = 32ULL * 1024 * 1024;
constexpr Seconds kAioliWaitWindow = 0.0005;
/// MLF: top-level quantum and number of feedback levels.
constexpr std::uint64_t kMlfBaseQuantum = 1ULL * 1024 * 1024;
constexpr int kMlfLevels = 4;

/// Decorator counting per-scheduler-type activity into the telemetry
/// registry ("agios.*", labelled with the scheduler name). Wraps every
/// scheduler make_scheduler() hands out; the counters are lock-free so
/// the dispatch loop pays two relaxed adds per access.
class InstrumentedScheduler final : public Scheduler {
 public:
  explicit InstrumentedScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {
    auto& reg = telemetry::Registry::global();
    const telemetry::Labels labels{{"sched", inner_->name()}};
    requests_ = &reg.counter("agios.requests", labels);
    dispatches_ = &reg.counter("agios.dispatches", labels);
    aggregations_ = &reg.counter("agios.aggregations", labels);
    merged_requests_ = &reg.counter("agios.merged_requests", labels);
  }

  std::string name() const override { return inner_->name(); }

  void add(SchedRequest req) override {
    requests_->add();
    inner_->add(std::move(req));
  }

  std::optional<Dispatch> pop(Seconds now) override {
    auto dispatch = inner_->pop(now);
    if (dispatch) {
      dispatches_->add();
      if (dispatch->aggregated()) {
        aggregations_->add();
        merged_requests_->add(dispatch->parts.size());
      }
    }
    return dispatch;
  }

  std::optional<Seconds> next_ready_time(Seconds now) const override {
    return inner_->next_ready_time(now);
  }

  std::size_t queued() const override { return inner_->queued(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  telemetry::Counter* requests_;
  telemetry::Counter* dispatches_;
  telemetry::Counter* aggregations_;
  telemetry::Counter* merged_requests_;
};

}  // namespace

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Fifo: return "FIFO";
    case SchedulerKind::Sjf: return "SJF";
    case SchedulerKind::TimeWindowAggregation: return "TO-AGG";
    case SchedulerKind::Twins: return "TWINS";
    case SchedulerKind::Hbrr: return "HBRR";
    case SchedulerKind::Aioli: return "aIOLi";
    case SchedulerKind::Mlf: return "MLF";
  }
  return "?";
}

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& config) {
  auto raw = [&]() -> std::unique_ptr<Scheduler> {
    switch (config.kind) {
    case SchedulerKind::Fifo:
      return std::make_unique<FifoScheduler>();
    case SchedulerKind::Sjf:
      return std::make_unique<SjfScheduler>(kAgingLimit);
    case SchedulerKind::TimeWindowAggregation:
      return std::make_unique<AggregationScheduler>(config.aggregation_window,
                                                    kMaxAggregate);
    case SchedulerKind::Twins:
      return std::make_unique<TwinsScheduler>(kTwinsWindow, kDataServers);
    case SchedulerKind::Hbrr:
      return std::make_unique<QuantumScheduler>(kHbrrQuantum);
    case SchedulerKind::Aioli:
      return std::make_unique<AioliScheduler>(
          kAioliBaseQuantum, kAioliMaxQuantum, kAioliWaitWindow);
    case SchedulerKind::Mlf:
      return std::make_unique<MlfScheduler>(kMlfBaseQuantum, kMlfLevels);
    }
    return nullptr;
  }();
  if (!raw) return nullptr;
  return std::make_unique<InstrumentedScheduler>(std::move(raw));
}

}  // namespace iofa::agios
