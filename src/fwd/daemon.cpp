#include "fwd/daemon.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <utility>

#include "common/clock.hpp"
#include "common/rng.hpp"

#include "gkfs/chunk.hpp"
#include "qos/scheduler.hpp"
#include "telemetry/trace.hpp"

namespace iofa::fwd {

namespace {

telemetry::Registry& registry_of(const IonParams& params) {
  return params.registry ? *params.registry : telemetry::Registry::global();
}

int worker_count(const IonParams& params) { return std::max(1, params.workers); }

int flusher_count(const IonParams& params) {
  return params.flushers > 0 ? params.flushers : worker_count(params);
}

}  // namespace

bool PathTable::intern(std::uint64_t id, std::string&& path) {
  MutexLock lk(mu_);
  auto [it, inserted] = map_.try_emplace(id);
  if (inserted) {
    it->second = std::make_unique<const std::string>(std::move(path));
  }
  return inserted;
}

const std::string& PathTable::lookup(std::uint64_t id) const {
  static const std::string kUnknown;
  MutexLock lk(mu_);
  auto it = map_.find(id);
  return it == map_.end() ? kUnknown : *it->second;
}

std::size_t PathTable::size() const {
  MutexLock lk(mu_);
  return map_.size();
}

IonDaemon::IonDaemon(int id, IonParams params, EmulatedPfs& pfs)
    : id_(id),
      params_(params),
      pfs_(pfs),
      ingest_bucket_(params.ingest_bandwidth,
                     std::max(params.ingest_bandwidth * 0.02,
                              static_cast<double>(4 * MiB))),
      // 4 x queue_capacity staged items per flusher: past that, a slow
      // PFS back-pressures the workers.
      flush_queue_(params.queue_capacity * 4 *
                   static_cast<std::size_t>(flusher_count(params))),
      epoch_(iofa::monotonic_now()),
      ledger_(params.ledger ? *params.ledger
                            : qos::QosMetrics(registry_of(params))) {
  auto& reg = registry_of(params_);
  const telemetry::Labels labels{{"ion", std::to_string(id_)}};
  metrics_.requests = &reg.counter("fwd.ion.requests", labels);
  metrics_.dispatches = &reg.counter("fwd.ion.dispatches", labels);
  metrics_.bytes_in = &reg.counter("fwd.ion.bytes_in", labels);
  metrics_.bytes_flushed = &reg.counter("fwd.ion.bytes_flushed", labels);
  metrics_.reads_local = &reg.counter("fwd.ion.reads_local", labels);
  metrics_.reads_pfs = &reg.counter("fwd.ion.reads_pfs", labels);
  metrics_.queue_depth = &reg.gauge("fwd.ion.queue_depth", labels);
  metrics_.workers = &reg.gauge("fwd.ion.workers", labels);
  metrics_.request_latency_us =
      &reg.histogram("fwd.ion.request_latency_us",
                     telemetry::BucketSpec::latency_us(), labels);
  metrics_.dispatch_bytes = &reg.histogram(
      "fwd.ion.dispatch_bytes", telemetry::BucketSpec::bytes(), labels);
  metrics_.queue_wait_us =
      &reg.histogram("fwd.ion.queue_wait_us",
                     telemetry::BucketSpec::latency_us(), labels);
  metrics_.flush_batch_bytes =
      &reg.histogram("fwd.ion.flush_batch_bytes",
                     telemetry::BucketSpec::bytes(), labels);
  metrics_.retries = &reg.counter("fwd.retries", labels);
  metrics_.flush_abandoned = &reg.counter("fwd.ion.flush_abandoned", labels);
  metrics_.flush_coalesced_extents =
      &reg.counter("fwd.ion.flush_coalesced_extents", labels);
  metrics_.path_interned = &reg.counter("fwd.ion.path_interned", labels);
  metrics_.inline_dispatches =
      &reg.counter("fwd.ion.inline_dispatches", labels);
  metrics_.inline_flushes = &reg.counter("fwd.ion.inline_flushes", labels);
  metrics_.fsync_met_at_ingest =
      &reg.counter("fwd.ion.fsync_met_at_ingest", labels);
  metrics_.idle_wakeups = &reg.counter("fwd.ion.idle_wakeups", labels);
  metrics_.busy = &reg.counter("fwd.overload.busy", labels);
  metrics_.saturation = &reg.gauge("fwd.overload.saturation", labels);
  busy_site_ = fault::busy_site(id_);
  admit_site_ = fault::ion_site(id_);
  flush_seed_ = SplitMix64((params_.injector ? params_.injector->plan().seed
                                             : 0x10F0A5EEDULL) ^
                           static_cast<std::uint64_t>(id_))
                    .next();
  baseline_.requests = metrics_.requests->value();
  baseline_.dispatches = metrics_.dispatches->value();
  baseline_.bytes_in = metrics_.bytes_in->value();
  baseline_.bytes_flushed = metrics_.bytes_flushed->value();
  baseline_.reads_local = metrics_.reads_local->value();
  baseline_.reads_pfs = metrics_.reads_pfs->value();

  const int workers = worker_count(params_);
  const int flushers = flusher_count(params_);
  metrics_.workers->set(static_cast<double>(workers));

  shards_.reserve(static_cast<std::size_t>(workers));
  for (int s = 0; s < workers; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        params_.queue_capacity, make_shard_scheduler(),
        workers == 1 ? fault::request_site(id_)
                     : fault::shard_site(id_, s)));
  }
  // Inline dispatch runs on a thread that also reads a link, so no step
  // of it may wait: a sleeping reader leaves the link's later frames in
  // the socket, where admission control cannot see them and the
  // client's resends go unanswered. Here that needs a scheduler that
  // releases every request at once (FIFO, no QoS decorator), no
  // modelled per-dispatch service time, and no fault event on a site
  // the dispatch draws, so every draw passes; dispatch_inline() checks
  // the rest per request.
  const fault::FaultInjector* faults = params_.injector;
  const fault::FaultInjector* pfs_faults = pfs_.params().injector;
  bool faulted = (faults && faults->targets(admit_site_)) ||
                 (pfs_faults && pfs_faults->targets(fault::kPfsReadSite));
  for (const auto& shard : shards_) {
    faulted = faulted || (faults && faults->targets(shard->request_fault_site));
  }
  inline_eligible_ = params_.scheduler.kind == agios::SchedulerKind::Fifo &&
                     !params_.qos && params_.dispatch_latency <= 0.0 &&
                     !faulted;
  inline_flush_eligible_ =
      inline_eligible_ &&
      !(pfs_faults && pfs_faults->targets(fault::kPfsWriteSite));
  // All shard state exists before any thread starts: worker/flusher
  // loops never see a partially built pipeline.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { worker_loop(s); });
  }
  flushers_.reserve(static_cast<std::size_t>(flushers));
  for (std::size_t f = 0; f < static_cast<std::size_t>(flushers); ++f) {
    flushers_.emplace_back([this, f] { flusher_loop(f); });
  }
}

IonDaemon::~IonDaemon() { shutdown(); }

Seconds IonDaemon::now() const {
  return std::chrono::duration<double>(iofa::monotonic_now() -
                                       epoch_)
      .count();
}

std::unique_ptr<agios::Scheduler> IonDaemon::make_shard_scheduler() const {
  if (params_.qos) {
    return qos::make_tenant_scheduler(params_.qos->registry(),
                                      params_.scheduler);
  }
  return agios::make_scheduler(params_.scheduler);
}

std::size_t IonDaemon::shard_of(std::uint64_t file_id, FwdOp op) const {
  if (shards_.size() == 1) return 0;
  // (file_id, op) keys the shard: one file's write stream (and its
  // fsyncs, which ride the write key) is always FIFO through one
  // worker, while reads and other files proceed in parallel. SplitMix64
  // scrambles low-entropy sequential file ids across shards.
  const std::uint64_t key = file_id * 2 + (op == FwdOp::Read ? 1 : 0);
  return static_cast<std::size_t>(SplitMix64(key).next() % shards_.size());
}

double IonDaemon::saturation() const {
  const double slab =
      params_.slab_pool ? params_.slab_pool->used_fraction() : 0.0;
  return admission_.score(queue_depth(),
                          shards_.size() * params_.queue_capacity, slab);
}

void IonDaemon::raise_restamp_floor() {
  const std::uint64_t now_us = monotonic_micros();
  std::uint64_t cur = restamp_floor_us_.load(std::memory_order_relaxed);
  while (cur < now_us && !restamp_floor_us_.compare_exchange_weak(
                             cur, now_us, std::memory_order_acq_rel)) {
  }
}

SubmitResult IonDaemon::try_submit(FwdRequest req, SubmitMode mode) {
  if (!running_.load() || is_crashed()) return SubmitResult::kDown;
  // Fsync markers are exempt from overload rejection: they carry no
  // payload, and refusing a durability barrier would only make a
  // saturated client re-offer it.
  const bool data_request = req.op != FwdOp::Fsync;
  if (data_request && params_.injector) {
    // Forced IonBusy answers ("error ... ion.<id>.busy") and admission
    // stalls ("stall ... ion.<id>.busy") for overload drills.
    const auto d = params_.injector->decide(busy_site_);
    if (d.stall > 0.0) sleep_for_seconds(d.stall);
    if (d.fail) {
      metrics_.busy->add();
      return SubmitResult::kBusy;
    }
  }
  if (data_request && params_.admission.enabled) {
    const double score = saturation();
    metrics_.saturation->set(score);
    const bool saturated = admission_.rejects(score);
    // With QoS, admission is class-aware: best-effort is shed first,
    // burst rides on tokens, guaranteed is exempt up to its reservation.
    // The ledger's rejected bucket is counted client-side, where every
    // kBusy answer lands.
    if (params_.qos ? !params_.qos->admit(req.tenant, req.size, saturated,
                                          now())
                    : saturated) {
      metrics_.busy->add();
      return SubmitResult::kBusy;
    }
  }
  // Intern the path once at the boundary: every later hop carries only
  // the 64-bit id, so queue moves stop shuffling heap strings around.
  if (!req.path.empty()) {
    if (paths_.intern(req.file_id, std::move(req.path))) {
      metrics_.path_interned->add();
    }
    req.path.clear();
  }
  // Stamped on EVERY enqueue (including failover re-submissions), so
  // the queue-wait histogram measures this attempt's wait only.
  req.queued_us = monotonic_micros();
  pending_.fetch_add(1);
  auto& shard = *shards_[shard_of(req.file_id, req.op)];
  if (mode == SubmitMode::kInlineWhenIdle && inline_eligible_) {
    if (dispatch_inline(shard, req)) return SubmitResult::kAccepted;
  } else {
    // Counted before the push: from here until the worker has
    // scheduled it, this request bars inline dispatch on its shard.
    shard.unscheduled.fetch_add(1);
  }
  queue_depth_.fetch_add(1);
  if (!shard.ingest.push(std::move(req))) {
    queue_depth_.fetch_sub(1);
    shard.unscheduled.fetch_sub(1);
    finish_pending();
    return SubmitResult::kDown;
  }
  metrics_.queue_depth->set(static_cast<double>(queue_depth_.load()));
  return SubmitResult::kAccepted;
}

bool IonDaemon::dispatch_inline(Shard& shard, FwdRequest& req) {
  // try_lock, never lock: a shard whose worker is busy is not idle, and
  // the caller's thread must not queue up behind it.
  if (!shard.mu.try_lock()) {
    shard.unscheduled.fetch_add(1);
    return false;
  }
  const bool dispatched = run_inline(shard, req);
  // Counted under the lock, so no later inline attempt on this shard
  // can overtake the request on its way to the queue.
  if (!dispatched) shard.unscheduled.fetch_add(1);
  shard.mu.unlock();
  return dispatched;
}

bool IonDaemon::run_inline(Shard& shard, FwdRequest& req) {
  // Re-checked under the lock: shutdown() and the worker's crash branch
  // take this lock, so a dispatch that passes here finishes before
  // either looks at the shard.
  if (!running_.load() || is_crashed() || shard.unscheduled.load() != 0 ||
      !shard.scheduler->empty() || !shard.in_flight.empty()) {
    return false;
  }
  // Only work that cannot wait runs here. A write or an fsync marker
  // needs a flush-queue slot, taken now so its enqueue cannot wait. A
  // read needs one source for its whole range: staging when every byte
  // is dirty, pinned so no flush cleans the range before the copy, or
  // the PFS when every byte is clean and the read bucket covers its
  // charge now. A mixed read would wait, and so would a charge past the
  // relay bucket's burst.
  const std::uint64_t file_id = req.file_id;
  const std::uint64_t offset = req.offset;
  const std::uint64_t size = req.size;
  const double tokens = static_cast<double>(size + params_.op_overhead);
  const bool read = req.op == FwdOp::Read;
  const bool marker = req.op == FwdOp::Fsync;
  if (!marker && tokens > ingest_bucket_.burst()) return false;
  const Coverage cover =
      read ? pin_if_dirty(file_id, offset, size) : Coverage::kMixed;
  if (read ? cover == Coverage::kMixed : !flush_queue_.try_reserve()) {
    return false;
  }
  InlineHold hold{!read, cover == Coverage::kDirty};
  const auto release_hold = [&] {
    if (hold.flush_slot) flush_queue_.cancel_reservation();
    if (hold.pinned) mark_clean(file_id, offset, size);
  };
  // A marker takes no tokens, and an expired request none either:
  // ingest_one settles it.
  if (!marker &&
      (req.deadline_us == 0 || monotonic_micros() <= req.deadline_us)) {
    // Relay tokens first, the PFS charge second; a refused PFS charge
    // returns the relay tokens, and the worker pays both blocking.
    if (!ingest_bucket_.try_acquire(tokens)) {
      release_hold();
      return false;
    }
    if (cover == Coverage::kClean && !pfs_.try_charge_read(size)) {
      ingest_bucket_.refund(tokens);
      release_hold();
      return false;
    }
    req.deadline_us = 0;  // paid for: ingest_one must not expire it now
  }
  metrics_.inline_dispatches->add();
  ingest_one(shard, std::move(req), &hold);
  // FIFO releases what it was just given; a request that ingest
  // settled itself (expired, or a marker) leaves nothing.
  if (auto dispatch = shard.scheduler->pop(now())) {
    process(shard, *dispatch, &hold);
  }
  release_hold();
  return true;
}

void IonDaemon::drain() {
  UniqueLock lk(pending_mu_);
  while (pending_.load() != 0) {
    pending_cv_.wait(lk);
  }
}

void IonDaemon::shutdown() {
  if (!running_.exchange(false)) return;
  for (auto& shard : shards_) shard->ingest.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
    // An inline dispatch that saw running_ before the flip may still be
    // staging: wait it out, so its flush item is queued before the
    // flush queue closes.
    MutexLock lk(shard->mu);
  }
  flush_queue_.close();
  for (auto& flusher : flushers_) {
    if (flusher.joinable()) flusher.join();
  }
}

void IonDaemon::finish_pending() {
  if (pending_.fetch_sub(1) == 1) {
    // Taking the mutex orders this notify after drain()'s re-check, so
    // the zero-crossing wakeup cannot be lost.
    MutexLock lk(pending_mu_);
    pending_cv_.notify_all();
  }
}

void IonDaemon::complete(std::shared_ptr<CompletionSink> done,
                         Completion result) {
  if (done) done->complete(result);
  finish_pending();
}

void IonDaemon::fail_request(FwdRequest& req) {
  ledger_.tenant(req.tenant).on_failed();
  complete(std::move(req.done), {CompletionStatus::kIonDown, 0});
}

void IonDaemon::fail_in_flight(Shard& shard) {
  if (shard.in_flight.empty() && shard.scheduler->empty()) return;
  for (auto& [tag, req] : shard.in_flight) fail_request(req);
  shard.in_flight.clear();
  // The scheduler still holds the tags we just failed; rebuilding it is
  // the crash wiping the daemon's volatile dispatch state.
  shard.scheduler = make_shard_scheduler();
}

void IonDaemon::enqueue_flush(FlushItem item, bool slot_reserved) {
  // Room is secured before any lock is taken: a producer waiting for a
  // full queue to drain holds nothing another producer needs, so an
  // inline dispatch that reserved its slot never waits behind it. The
  // queue closes only after every dispatcher has stopped.
  if (!slot_reserved && !flush_queue_.reserve()) return;
  // flush_enqueue_mu_ spans [counter update, queue push], so queue order
  // is seq order and a marker's barrier can never be overtaken by a
  // data item that was counted before it - the invariants the run rule
  // and the fsync barrier's deadlock-freedom rest on.
  MutexLock elk(flush_enqueue_mu_);
  {
    MutexLock lk(flush_mu_);
    if (item.fsync) {
      item.barrier = flush_enqueued_;
    } else {
      // Data items register their extent in the gate NOW, not at write
      // time: whichever flusher later takes any item of this file is
      // guaranteed to see every earlier overlapping extent and wait its
      // turn, which is what preserves last-writer-wins across flushers.
      item.seq = ++flush_enqueued_;
      flush_extents_[item.file_id].emplace(
          item.seq, std::make_pair(item.offset, item.offset + item.size));
    }
  }
  pending_.fetch_add(1);
  flush_queue_.push_reserved(std::move(item));
}

void IonDaemon::ingest_one(Shard& shard, FwdRequest&& req,
                           InlineHold* hold) {
  if (req.queued_us != 0) {
    // Crash-restart restamping: a request that sat out an outage in
    // the queue is billed from the restart, not from its enqueue -
    // the histogram (and the QoS tenant wait it feeds) must never
    // learn the length of a down window as "queue wait".
    const std::uint64_t floor =
        restamp_floor_us_.load(std::memory_order_relaxed);
    const std::uint64_t stamped = std::max(req.queued_us, floor);
    const std::uint64_t now_us = monotonic_micros();
    const std::uint64_t wait_us = now_us > stamped ? now_us - stamped : 0;
    metrics_.queue_wait_us->observe(static_cast<double>(wait_us));
    if (params_.qos) {
      params_.qos->observe_wait(req.tenant, static_cast<double>(wait_us));
    }
    auto& tracer = telemetry::Tracer::global();
    if (tracer.enabled()) {
      tracer.complete("queue_wait", "fwd.ion", stamped, wait_us,
                      "bytes", static_cast<std::int64_t>(req.size));
    }
  }
  if (req.op != FwdOp::Fsync && req.deadline_us != 0 &&
      monotonic_micros() > req.deadline_us) {
    // Deadline passed while queued: drop at dequeue (counted, never
    // silently) so a saturated queue spends dispatch capacity on work
    // a client is still waiting for. Fsync markers are exempt - they
    // gate durability, not latency.
    ledger_.tenant(req.tenant).on_expired();
    complete(std::move(req.done), {CompletionStatus::kExpired, 0});
    return;
  }
  if (params_.injector) {
    // Admission-level fault site: count-triggered crashes ("after N
    // crash ion.K") fire here, taking the triggering request with
    // them; stalls model an overloaded ingest path.
    const auto d = params_.injector->decide(admit_site_);
    if (d.stall > 0.0) sleep_for_seconds(d.stall);
    if (d.fail) {
      fail_request(req);
      return;
    }
  }
  if (req.op == FwdOp::Fsync) {
    // Every write acknowledged so far was enqueued (or claimed for an
    // inline flush) before its ack, so a drained pipeline means the
    // marker's barrier is met: it completes here, as flush_marker would.
    if (flush_idle()) {
      metrics_.fsync_met_at_ingest->add();
      ledger_.tenant(req.tenant).on_admitted(0);
      complete(std::move(req.done), {});
      return;
    }
    // Order the marker after everything staged so far (its barrier
    // covers every data item enqueued daemon-wide before it).
    FlushItem marker;
    marker.file_id = req.file_id;
    marker.fsync = true;
    marker.done = std::move(req.done);
    marker.tenant = req.tenant;
    enqueue_flush(std::move(marker),
                  hold && std::exchange(hold->flush_slot, false));
    finish_pending();
    return;
  }
  const std::uint64_t tag = shard.next_tag++;
  agios::SchedRequest sr;
  sr.tag = tag;
  sr.file_id = req.file_id;
  sr.op = req.op == FwdOp::Write ? agios::ReqOp::Write : agios::ReqOp::Read;
  sr.offset = req.offset;
  sr.size = req.size;
  sr.arrival = now();
  sr.tenant = req.tenant;
  shard.in_flight.emplace(tag, std::move(req));
  shard.scheduler->add(sr);
}

void IonDaemon::worker_loop(std::size_t si) {
  auto& tracer = telemetry::Tracer::global();
  bool named = false;
  bool was_down = false;
  Shard& shard = *shards_[si];
  // When the scheduler next releases a request it holds; never while it
  // holds nothing. Only the worker leaves requests there: an inline
  // dispatch starts on an empty scheduler and empties it again.
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  Seconds ready_at = kNever;
  // The request the wait popped, taken before the rest of the queue.
  std::optional<FwdRequest> arrived;
  auto next_request = [&]() -> std::optional<FwdRequest> {
    if (arrived) return std::exchange(arrived, std::nullopt);
    auto req = shard.ingest.try_pop();
    if (req) queue_depth_.fetch_sub(1);
    return req;
  };

  while (true) {
    if (!named && tracer.enabled()) {
      tracer.set_thread_name(
          "ion" + std::to_string(id_) +
          (shards_.size() == 1 ? ".dispatcher"
                               : ".worker" + std::to_string(si)));
      named = true;
    }
    // The worker's one wait: an arrival, the ready time or close ends
    // it. The dispatch lock is free meanwhile, so an idle shard takes
    // inline dispatches.
    FwdRequest req;
    const PopResult woke = shard.ingest.pop_until(
        ready_at == kNever
            ? MonotonicClock::time_point::max()
            : epoch_ + std::chrono::ceil<MonotonicClock::duration>(
                           std::chrono::duration<double>(ready_at)),
        req);
    if (woke == PopResult::kItem) {
      queue_depth_.fetch_sub(1);
      arrived = std::move(req);
    }
    // The scheduler's clock: a ready time that timed the wait out has
    // come, whatever the rounding of the clock read.
    Seconds t = woke == PopResult::kTimeout ? ready_at : 0.0;
    bool worked = woke == PopResult::kItem;
    MutexLock lk(shard.mu);
    // One round per dispatch while one is ready, each re-checking the
    // crash state and taking in what arrived meanwhile.
    while (true) {
      if (is_crashed()) {
        // Down: volatile dispatch state is lost, queued work is refused
        // (clients fail over). The staging store and the flushers
        // survive - they model node-local storage, which a daemon
        // restart reattaches to.
        was_down = true;
        fail_in_flight(shard);
        while (auto failed = next_request()) {
          fail_request(*failed);
          shard.unscheduled.fetch_sub(1);
        }
        ready_at = kNever;
        break;
      }
      if (was_down) {
        // Injector-scheduled windows end without restart() being
        // called; the worker observing the down -> alive edge raises
        // the floor so survivors are restamped exactly like the
        // manual-restart path.
        raise_restamp_floor();
        was_down = false;
      }
      if (arrived) {
        // The popped request goes in alone: its admission fault site
        // may take the ION down before the rest is taken in.
        FwdRequest first = std::move(*arrived);
        arrived.reset();
        ingest_one(shard, std::move(first));
        shard.unscheduled.fetch_sub(1);
        continue;
      }
      // Pull everything immediately available into the scheduler.
      while (auto next = next_request()) {
        ingest_one(shard, std::move(*next));
        shard.unscheduled.fetch_sub(1);
        worked = true;
      }
      metrics_.queue_depth->set(static_cast<double>(queue_depth_.load()));

      t = std::max(t, now());
      if (auto dispatch = shard.scheduler->pop(t)) {
        process(shard, *dispatch);
        worked = true;
        continue;
      }
      ready_at = shard.scheduler->next_ready_time(t).value_or(kNever);
      // Closed and drained: nothing arrives any more, so releasing each
      // held request at its ready time now dispatches and merges it
      // exactly as waiting for that time would.
      if (ready_at == kNever || woke != PopResult::kClosed) break;
      t = ready_at;
    }
    if (woke == PopResult::kClosed) return;
    if (!worked && !was_down) metrics_.idle_wakeups->add();
  }
}

void IonDaemon::process(Shard& shard, const agios::Dispatch& dispatch,
                        InlineHold* hold) {
  telemetry::ScopedSpan span("dispatch", "fwd.ion", "bytes",
                             static_cast<std::int64_t>(dispatch.size));

  // One ingest charge per dispatch: aggregation amortises the per-access
  // overhead, which is exactly how forwarding recovers small-request
  // bandwidth. An inline dispatch paid before it committed.
  if (!hold) {
    ingest_bucket_.acquire(static_cast<double>(dispatch.size) +
                           static_cast<double>(params_.op_overhead));
  }
  // The latency component of a dispatch (RPC handling, syscall cost) is
  // per-worker, not shared relay bandwidth - this is what a wider
  // worker pool pipelines.
  if (params_.dispatch_latency > 0.0) {
    sleep_for_seconds(params_.dispatch_latency);
  }

  metrics_.dispatches->add();
  metrics_.requests->add(dispatch.parts.size());
  metrics_.bytes_in->add(dispatch.size);
  metrics_.dispatch_bytes->observe(static_cast<double>(dispatch.size));
  const Seconds t_dispatch = now();
  for (const auto& part : dispatch.parts) {
    metrics_.request_latency_us->observe(
        std::max(0.0, (t_dispatch - part.arrival) * 1e6));
  }

  for (const auto& part : dispatch.parts) {
    auto it = shard.in_flight.find(part.tag);
    assert(it != shard.in_flight.end());
    FwdRequest req = std::move(it->second);
    shard.in_flight.erase(it);

    if (params_.injector) {
      // Request-level fault site: an individual forwarded I/O fails or
      // lags without taking the daemon down.
      const fault::FaultDecision d =
          params_.injector->decide(shard.request_fault_site);
      if (d.stall > 0.0) sleep_for_seconds(d.stall);
      if (d.fail) {
        fail_request(req);
        continue;
      }
    }

    if (req.op == FwdOp::Write) {
      if (pfs_.params().store_data && !req.payload.empty()) {
        // The staging store references the slab bytes for the copy-in;
        // the SAME slab then rides the flush item to the PFS - the
        // payload is written once by the client and never duplicated.
        const std::span<const std::byte> src = req.payload.span();
        for (const auto& slice : gkfs::split_range(req.offset, req.size)) {
          staging_.write(
              req.file_id, slice.chunk, slice.offset_in_chunk,
              src.subspan(slice.file_offset - req.offset, slice.size));
        }
      }
      mark_dirty(req.file_id, req.offset, req.size);
      FlushItem item;
      item.file_id = req.file_id;
      item.offset = req.offset;
      item.size = req.size;
      item.payload = std::move(req.payload);
      item.tenant = req.tenant;
      if (params_.write_through) {
        // Ack from the flush, after the PFS write; the ledger's
        // admitted-vs-failed outcome moves there with it.
        item.done = std::move(req.done);
        item.write_through = true;
      } else {
        ledger_.tenant(req.tenant).on_admitted(req.size);
      }
      // An inline write whose flush cannot wait is flushed below, on
      // this thread, once acknowledged; any other goes to the flushers.
      const bool flush_here = hold && claim_inline_flush(item);
      if (!flush_here) {
        enqueue_flush(std::move(item),
                      hold && std::exchange(hold->flush_slot, false));
      }
      if (params_.write_through) {
        finish_pending();
      } else {
        complete(std::move(req.done), {CompletionStatus::kOk, req.size});
      }
      if (flush_here) flush_run({&item, 1}, /*charged=*/true);
    } else {
      // Read: segments still dirty here come from the staging store,
      // clean ones from the PFS. The result ends at the last byte either
      // source has; a clean hole before a later dirty segment reads as
      // zeros. An inline read fixed its one source at eligibility: a
      // second walk could meet a write's new dirty extent and split off a
      // PFS segment its paid charge does not cover.
      const std::span<std::byte> buf =
          req.payload.empty()
              ? std::span<std::byte>()
              : req.payload.span().first(
                    std::min<std::size_t>(req.payload.size(), req.size));
      const std::uint64_t end = req.offset + req.size;
      std::uint64_t valid_end = req.offset;
      bool touched_pfs = false;
      for (std::uint64_t lo = req.offset; lo < end;) {
        bool dirty = hold && hold->pinned;
        const std::uint64_t hi =
            hold ? end : dirty_run_end(req.file_id, lo, end, dirty);
        const std::size_t at = lo - req.offset;
        const std::span<std::byte> out =
            at < buf.size()
                ? buf.subspan(at, std::min<std::size_t>(buf.size() - at,
                                                        hi - lo))
                : std::span<std::byte>();
        if (dirty) {
          if (pfs_.params().store_data) {
            for (const auto& slice : gkfs::split_range(lo, out.size())) {
              staging_.read(req.file_id, slice.chunk, slice.offset_in_chunk,
                            out.subspan(slice.file_offset - lo, slice.size));
            }
          }
          valid_end = hi;
        } else {
          // The ION is ONE reader at the PFS no matter how many client
          // processes it stands for - that is the flow-reshaping benefit.
          const std::size_t got = pfs_.read(
              paths_.lookup(req.file_id), lo, hi - lo, out,
              /*stream_weight=*/1.0, /*charged=*/hold != nullptr);
          if (got < out.size()) {
            std::fill(out.begin() + static_cast<std::ptrdiff_t>(got),
                      out.end(), std::byte{0});
          }
          valid_end = std::max(valid_end, lo + got);
          touched_pfs = true;
        }
        lo = hi;
      }
      const std::size_t n = valid_end - req.offset;
      // A read that needed the PFS for any byte counts as a PFS read.
      (touched_pfs ? metrics_.reads_pfs : metrics_.reads_local)->add();
      ledger_.tenant(req.tenant).on_admitted(req.size);
      req.payload.reset();  // the consumer holds its own reference
      complete(std::move(req.done), {CompletionStatus::kOk, n});
    }
  }
}

void IonDaemon::flush_marker(FlushItem& item) {
  // The barrier is the seq of the last data item enqueued daemon-wide
  // before this marker; durability means every seq up to it drained
  // (flushed or abandoned). Waiting here cannot deadlock: the queue is
  // FIFO, so each of those items was popped before this marker and is
  // drained or in another flusher's run, which waits only on strictly
  // older runs, never on a barrier.
  {
    UniqueLock lk(flush_mu_);
    while (flush_drained_ < item.barrier) flush_cv_.wait(lk);
  }
  ledger_.tenant(item.tenant).on_admitted(0);
  complete(std::move(item.done), {});
}

bool IonDaemon::flush_idle() const {
  MutexLock lk(flush_mu_);
  return flush_drained_ == flush_enqueued_;
}

bool IonDaemon::claim_inline_flush(FlushItem& item) {
  if (!inline_flush_eligible_) return false;
  const std::string& path = paths_.lookup(item.file_id);
  // Under both enqueue locks, as enqueue_flush registers: the seq is
  // taken before the ack, so a marker ingested after the ack counts
  // this item in its barrier. With every older item drained, no
  // extent-gate wait and no barrier is ahead of this one.
  MutexLock elk(flush_enqueue_mu_);
  MutexLock lk(flush_mu_);
  if (flush_drained_ != flush_enqueued_ ||
      !pfs_.try_charge_write(path, item.size)) {
    return false;
  }
  item.seq = ++flush_enqueued_;
  flush_extents_[item.file_id].emplace(
      item.seq, std::make_pair(item.offset, item.offset + item.size));
  pending_.fetch_add(1);
  metrics_.inline_flushes->add();
  return true;
}

void IonDaemon::await_extent_turn(std::uint64_t file_id, std::uint64_t seq,
                                  std::uint64_t lo, std::uint64_t hi) {
  // Wait until no registered extent of this file with a SMALLER enqueue
  // seq overlaps [lo, hi). Waits only ever point at strictly older
  // extents, so the wait graph is acyclic and gate chains terminate.
  UniqueLock lk(flush_mu_);
  for (;;) {
    bool blocked = false;
    auto fit = flush_extents_.find(file_id);
    if (fit != flush_extents_.end()) {
      for (const auto& [s, range] : fit->second) {
        if (s >= seq) break;  // map is ordered by seq
        if (range.first < hi && range.second > lo) {
          blocked = true;
          break;
        }
      }
    }
    if (!blocked) return;
    flush_cv_.wait(lk);
  }
}

void IonDaemon::flush_run(std::span<FlushItem> run, bool charged) {
  assert(!run.empty());
  const std::uint64_t file_id = run.front().file_id;
  Bytes total = 0;
  for (const auto& item : run) total += item.size;
  telemetry::ScopedSpan span("flush", "fwd.ion", "bytes",
                             static_cast<std::int64_t>(total));
  metrics_.flush_batch_bytes->observe(static_cast<double>(total));
  if (run.size() > 1) {
    metrics_.flush_coalesced_extents->add(run.size() - 1);
  }
  // Last-writer-wins gate. A run's seqs are consecutive and it is
  // popped after every older item, so any older overlapping extent
  // belongs to a run taken earlier whose seqs are all below this one's:
  // the wait graph between flushers is acyclic.
  for (const auto& item : run) {
    await_extent_turn(file_id, item.seq, item.offset,
                      item.offset + item.size);
  }

  const std::string& path = paths_.lookup(file_id);
  std::vector<EmulatedPfs::GatherExtent> extents(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    extents[i].offset = run[i].offset;
    extents[i].size = run[i].size;
    if (run[i].payload.size() >= run[i].size) {
      extents[i].data =
          std::span<const std::byte>(run[i].payload.span())
              .first(run[i].size);
    }
  }

  // Settle one item's accounting after its extent reached the PFS (or
  // was abandoned): dirty map, extent gate, barrier counter, and the
  // completion record. The slab reference is dropped here -
  // payload lifetime ends exactly when the PFS has the bytes.
  auto settle = [&](FlushItem& item, bool flushed) {
    if (flushed) mark_clean(item.file_id, item.offset, item.size);
    {
      MutexLock lk(flush_mu_);
      flush_drained_ahead_.push(item.seq);
      while (!flush_drained_ahead_.empty() &&
             flush_drained_ahead_.top() == flush_drained_ + 1) {
        flush_drained_ahead_.pop();
        ++flush_drained_;
      }
      auto fit = flush_extents_.find(item.file_id);
      if (fit != flush_extents_.end()) {
        fit->second.erase(item.seq);
        if (fit->second.empty()) flush_extents_.erase(fit);
      }
      flush_cv_.notify_all();
    }
    Completion result{CompletionStatus::kOk, item.size};
    if (flushed) {
      metrics_.bytes_flushed->add(item.size);
      if (item.write_through) {
        ledger_.tenant(item.tenant).on_admitted(item.size);
      }
    } else {
      // Retry budget exhausted: the range stays dirty (reads keep
      // hitting the staging copy) and write-through callers see the
      // failure; an accepted-but-never-completed write-through request
      // lands in the failed bucket, keeping the ledger identity exact.
      metrics_.flush_abandoned->add();
      result = {CompletionStatus::kIonDown, 0};
      if (item.write_through) {
        ledger_.tenant(item.tenant).on_failed();
      }
    }
    item.payload.reset();
    complete(std::move(item.done), result);
  };

  // Positional writes are idempotent, so the retry loop is safe to
  // re-dispatch: at-least-once at the PFS is exactly-once on disk.
  // write_gather consumes ONE fault decision per extent and stops at
  // the first failure (prefix-stop), so the (site, outcome) stream is
  // exactly what per-item writes would have produced - the retry then
  // resumes from the failed extent with that item's own backoff seed.
  std::size_t done = 0;
  std::vector<int> failures(run.size(), 0);
  while (done < run.size()) {
    const std::size_t applied = pfs_.write_gather(
        path,
        std::span<const EmulatedPfs::GatherExtent>(extents).subspan(done),
        /*stream_weight=*/1.0, std::exchange(charged, false));
    for (std::size_t i = 0; i < applied; ++i) {
      settle(run[done + i], /*flushed=*/true);
    }
    done += applied;
    if (done >= run.size()) break;
    FlushItem& item = run[done];
    ++failures[done];
    if (params_.max_flush_attempts > 0 &&
        failures[done] >= params_.max_flush_attempts) {
      settle(item, /*flushed=*/false);
      ++done;
      continue;
    }
    metrics_.retries->add();
    sleep_for_seconds(fault::backoff_delay(
        params_.flush_backoff, failures[done],
        flush_seed_ ^ item.offset ^ (item.size << 20)));
  }
}

void IonDaemon::flusher_loop(std::size_t fi) {
  auto& tracer = telemetry::Tracer::global();
  bool named = false;
  std::vector<FlushItem> run;
  while (auto head = flush_queue_.pop()) {
    if (!named && tracer.enabled()) {
      tracer.set_thread_name(
          "ion" + std::to_string(id_) +
          (flushers_.size() == 1 ? ".flusher"
                                 : ".flusher" + std::to_string(fi)));
      named = true;
    }
    if (head->fsync) {
      flush_marker(*head);
      continue;
    }
    // Grow one run from the head: same file, offset-contiguous, the
    // next enqueue seq, up to flush_batch_max bytes. A seq gap (another
    // flusher took the item in between) ends the run, which is what
    // keeps every extent-gate wait pointing at a strictly older run.
    Bytes run_bytes = head->size;
    run.push_back(std::move(*head));
    while (run_bytes < params_.flush_batch_max) {
      auto next = flush_queue_.try_pop_if([&](const FlushItem& front) {
        const FlushItem& back = run.back();
        return !front.fsync && front.file_id == back.file_id &&
               front.offset == back.offset + back.size &&
               front.seq == back.seq + 1;
      });
      if (!next) break;
      run_bytes += next->size;
      run.push_back(std::move(*next));
    }
    flush_run(run);
    run.clear();
  }
}

namespace {

/// Add `delta` registrations to [lo, hi) of a coverage step function
/// (segment start -> number of dirty extents covering the segment; the
/// count is 0 before the first key). Adjacent segments with equal
/// counts are merged and leading zero segments dropped, so a map whose
/// registrations are all released ends up empty.
void add_coverage(std::map<std::uint64_t, int>& cover,
                  std::uint64_t lo, std::uint64_t hi, int delta) {
  if (lo >= hi) return;
  // Split at lo and hi so [lo, hi) is a whole number of segments.
  const auto split = [&](std::uint64_t at) {
    const auto next = cover.upper_bound(at);
    const int count = next == cover.begin() ? 0 : std::prev(next)->second;
    return cover.emplace(at, count).first;
  };
  const auto first = split(lo);
  const auto last = split(hi);
  for (auto it = first; it != last; ++it) it->second += delta;
  // Only the segments from `first` to `last` changed count or
  // neighbour: drop each one that now equals the segment before it.
  auto it = first;
  for (bool at_last = false; !at_last;) {
    at_last = it == last;
    const int before = it == cover.begin() ? 0 : std::prev(it)->second;
    it = it->second == before ? cover.erase(it) : std::next(it);
  }
}

/// End of the maximal segment [lo, end) of [lo, hi) whose bytes are all
/// covered or all uncovered; `dirty` reports which.
std::uint64_t coverage_run_end(const std::map<std::uint64_t, int>& cover,
                               std::uint64_t lo, std::uint64_t hi,
                               bool& dirty) {
  auto it = cover.upper_bound(lo);
  dirty = it != cover.begin() && std::prev(it)->second > 0;
  // Skip boundaries between two dirty segments of different counts; the
  // first boundary that flips dirtiness (or hi) ends the run.
  while (it != cover.end() && it->first < hi && (it->second > 0) == dirty) {
    ++it;
  }
  return it != cover.end() && it->first < hi ? it->first : hi;
}

}  // namespace

void IonDaemon::mark_dirty(std::uint64_t file_id, std::uint64_t offset,
                           std::uint64_t size) {
  MutexLock lk(dirty_mu_);
  add_coverage(dirty_[file_id], offset, offset + size, +1);
}

void IonDaemon::mark_clean(std::uint64_t file_id, std::uint64_t offset,
                           std::uint64_t size) {
  MutexLock lk(dirty_mu_);
  auto fit = dirty_.find(file_id);
  if (fit == dirty_.end()) return;
  add_coverage(fit->second, offset, offset + size, -1);
  if (fit->second.empty()) dirty_.erase(fit);
}

IonDaemon::Coverage IonDaemon::pin_if_dirty(std::uint64_t file_id,
                                            std::uint64_t offset,
                                            std::uint64_t size) {
  if (size == 0) return Coverage::kMixed;
  MutexLock lk(dirty_mu_);
  auto fit = dirty_.find(file_id);
  if (fit == dirty_.end()) return Coverage::kClean;
  bool dirty = false;
  const std::uint64_t end = offset + size;
  if (coverage_run_end(fit->second, offset, end, dirty) != end) {
    return Coverage::kMixed;
  }
  if (!dirty) return Coverage::kClean;
  add_coverage(fit->second, offset, end, +1);
  return Coverage::kDirty;
}

std::uint64_t IonDaemon::dirty_run_end(std::uint64_t file_id,
                                       std::uint64_t lo, std::uint64_t hi,
                                       bool& dirty) const {
  MutexLock lk(dirty_mu_);
  dirty = false;
  auto fit = dirty_.find(file_id);
  if (fit == dirty_.end()) return hi;
  return coverage_run_end(fit->second, lo, hi, dirty);
}

IonDaemon::Stats IonDaemon::stats() const {
  Stats s;
  s.requests = metrics_.requests->value() - baseline_.requests;
  s.dispatches = metrics_.dispatches->value() - baseline_.dispatches;
  s.bytes_in = metrics_.bytes_in->value() - baseline_.bytes_in;
  s.bytes_flushed = metrics_.bytes_flushed->value() - baseline_.bytes_flushed;
  s.reads_local = metrics_.reads_local->value() - baseline_.reads_local;
  s.reads_pfs = metrics_.reads_pfs->value() - baseline_.reads_pfs;
  return s;
}

}  // namespace iofa::fwd
