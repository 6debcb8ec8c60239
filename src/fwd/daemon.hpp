#pragma once
// GekkoFWD ION daemon.
//
// One daemon = one temporary I/O node: sharded ingest queues fed by
// client shims, one AGIOS scheduler per shard deciding dispatch order
// and aggregation, a node-local staging store (the GekkoFS burst-buffer
// role), and a pool of background flushers that drain staged writes to
// the PFS. Writes complete towards the client once staged
// (write-behind); durability is obtained with fsync, which a flusher
// acknowledges after everything staged before it has reached the PFS.
//
// Pipeline layout (workers = N, flushers = M):
//
//   submit() --(file_id, op) shard--> ingest[0..N) --> worker[0..N)
//       worker: AGIOS schedule + aggregate, stage, ack, enqueue flush
//   try_submit(kInlineWhenIdle) on an idle FIFO shard: the caller runs
//       the worker's ingest -> schedule -> process steps itself under
//       the shard's dispatch lock, and no worker wakes for the request,
//       when no step would wait: a write or fsync marker with a
//       reserved flush slot, a read served wholly from staging, or a
//       wholly clean read whose PFS charge is paid now; relay tokens
//       taken. A daemon whose fault plan names a site the dispatch
//       draws never dispatches inline. Such a write is flushed on the
//       same thread once acknowledged, and no flusher wakes for it,
//       when nothing older is queued or in flight, the PFS write bucket
//       covers its charge now and the plan names no pfs.write event
//   fsync markers complete where they are ingested when every flush
//       item enqueued before them has drained; only the rest queue
//   flush items --> one FIFO flush queue --> flusher[0..M)
//       flusher: pops one run (the head plus the seq-consecutive,
//       offset-contiguous same-file items behind it) and drains it as
//       one scatter-gather PFS write; the extent gate keeps
//       last-writer-wins order between flushers
//   completions run inline on the thread that settles the request:
//       the worker or inline dispatcher (write-behind acks, reads,
//       expiry, crash fail-out, fsync markers met at ingest) or the
//       flusher (other fsync markers, write-through and abandoned
//       flushes), with no daemon lock held
//
// Requests for one (file_id, op) stream always land on the same
// dispatch shard, so per-file FIFO order holds through staging while
// independent streams proceed in parallel. An inline dispatch keeps
// that order: it runs only when the shard lock is free (try_lock), the
// shard has no accepted-but-unscheduled request (queued, or popped by
// the worker and not yet scheduled) and its scheduler is empty, so no
// older request of the stream can still be ahead of it. Flush items
// enter the one flush queue in daemon-wide enqueue-seq order; a
// flusher writes an extent only once every older overlapping extent of
// the file has reached the PFS, so last writer wins whichever flusher
// takes it.
// Fsync markers carry a sequence barrier: they complete only after
// every flush item enqueued before them has been drained or abandoned.
// With workers == 1 and flushers == 1 the pipeline degenerates to the
// original serial dispatcher/flusher pair and is byte-identical under
// fault-seed replay (coalescing keeps one fault decision per extent,
// so the injector's per-site streams advance exactly as they would for
// per-item writes).
//
// Zero-copy: payloads arrive as slab handles (common/slab_pool.hpp)
// and are referenced — never copied — through ingest, scheduling,
// staging bookkeeping, flush queues and the PFS scatter-gather write.
// Paths are interned into an id ↔ path table at the submit boundary,
// so queue hops carry a 64-bit id instead of a heap string.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "agios/scheduler.hpp"
#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/queue.hpp"
#include "common/slab_pool.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"
#include "fault/backoff.hpp"
#include "fault/injector.hpp"
#include "fwd/overload.hpp"
#include "fwd/pfs_backend.hpp"
#include "fwd/request.hpp"
#include "qos/enforcer.hpp"
#include "gkfs/chunk_store.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {

struct IonParams {
  double ingest_bandwidth = 650.0e6;  ///< bytes/s relay capacity
  Bytes op_overhead = 64 * KiB;       ///< token surcharge per dispatch
  std::size_t queue_capacity = 256;
  agios::SchedulerConfig scheduler;
  /// Write-through: acknowledge writes only after the PFS has them
  /// (no burst-buffer effect; ablation of the write-behind staging).
  bool write_through = false;
  /// Dispatcher shards. Requests are keyed by (file_id, op) to a shard
  /// so per-stream FIFO order is preserved; independent streams proceed
  /// in parallel. 1 = the original serial dispatcher.
  int workers = 1;
  /// PFS flusher pool size; 0 = one flusher per worker. All flushers
  /// pop the one daemon-wide flush queue; the extent gate keeps
  /// per-file last-writer-wins order between them.
  int flushers = 0;
  /// Modelled per-dispatch service time of the relay (RPC handling,
  /// syscall, interrupt cost) - the latency component the worker pool
  /// pipelines, as opposed to op_overhead which charges the bandwidth
  /// component. 0 = not modelled (legacy behaviour).
  Seconds dispatch_latency = 0.0;
  /// Byte cap of one flush run: a flusher grows a run from the queue
  /// head while the next item is a same-file, offset-contiguous extent
  /// with the next enqueue seq, and writes the run as one
  /// scatter-gather PFS write (fault decisions stay per-extent, so
  /// seeded replay is unaffected by how runs happened to group).
  Bytes flush_batch_max = 8 * MiB;
  /// Shared payload slab pool (owned by the ForwardingService or the
  /// bench); may be null. The daemon does not allocate payloads itself
  /// — the pointer feeds pool occupancy into the admission saturation
  /// score so exhaustion becomes backpressure instead of heap traffic.
  SlabPool* slab_pool = nullptr;
  /// Metrics destination; nullptr means telemetry::Registry::global().
  telemetry::Registry* registry = nullptr;
  /// Fault-injection hook (sites ion.<id> / ion.<id>.request, or
  /// ion.<id>.shard.<s> when workers > 1); may be null. Crash/restart
  /// schedules for this ION are polled through it.
  fault::FaultInjector* injector = nullptr;
  /// Flusher retry budget for failed PFS writes; 0 = retry until the
  /// write lands (staged data is never abandoned).
  int max_flush_attempts = 0;
  fault::BackoffPolicy flush_backoff;
  /// Admission control: past the saturation high-watermark try_submit
  /// answers IonBusy instead of blocking (fsync markers are exempt -
  /// they carry no payload and gate durability). Disabled by default.
  AdmissionOptions admission = {};
  /// This ION's QoS enforcer (owned by the service's QosRuntime); null
  /// while QoS is disabled. With an enforcer, admission decisions
  /// become class-aware (qos/enforcer.hpp), dispatch order is
  /// tenant-weighted, and terminal outcomes settle in the tenant's own
  /// ledger row. Requires admission.enabled for the saturated lattice
  /// to ever engage.
  qos::QosEnforcer* qos = nullptr;
  /// The admission ledger accepted requests settle in (the service's
  /// one table, shared with its clients); null builds a default-tenant
  /// table of the daemon's own against `registry`.
  const qos::QosMetrics* ledger = nullptr;
};

/// Outcome of offering a request to an ION (try_submit).
enum class SubmitResult {
  kAccepted,  ///< queued; will end in admitted / expired / failed
  kBusy,      ///< retryable overload rejection (admission or fault)
  kDown       ///< daemon crashed or shut down
};

/// How try_submit hands an accepted request to its dispatch shard.
enum class SubmitMode {
  kQueue,  ///< always through the shard's ingest queue and worker
  /// Dispatch on the calling thread when the shard is idle and no step
  /// of the dispatch would wait: a write or fsync marker with a free
  /// flush-queue slot, a read served wholly from staging, or a wholly
  /// clean read whose PFS charge the read bucket covers now; relay
  /// tokens on hand. Otherwise queue. Only FIFO daemons without QoS or
  /// dispatch_latency whose fault plan names no site the dispatch draws
  /// (ion.<N>, the request or shard site, pfs.read) dispatch inline.
  /// A write dispatched so is acknowledged and then flushed on the same
  /// thread when no older flush item is queued or in flight, the PFS
  /// write bucket covers it now and the plan names no pfs.write event;
  /// a marker whose barrier is met completes there, and any other is
  /// queued for the flushers from there. For a caller that would
  /// otherwise only wait for the worker: the RPC server's reader thread
  /// (after the response is sent), and an in-proc client offering the
  /// request it waits for next. An async submitter would end up doing
  /// every shard's work itself.
  kInlineWhenIdle
};

/// Daemon-side id ↔ path intern table. Paths enter once at the submit
/// boundary; every later pipeline hop (shard queues, scheduler tags,
/// flush items) carries only the 64-bit file id. Entries are never
/// erased, so lookup() may hand out references without holding the
/// lock past the call.
class PathTable {
 public:
  /// Intern `path` under `id`. Returns true when the id was new.
  bool intern(std::uint64_t id, std::string&& path) IOFA_EXCLUDES(mu_);
  /// Resolve an interned id; an empty string for unknown ids.
  const std::string& lookup(std::uint64_t id) const IOFA_EXCLUDES(mu_);
  std::size_t size() const IOFA_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // unique_ptr targets are stable across rehash, which is what makes
  // the lock-free reference handout of lookup() sound.
  std::unordered_map<std::uint64_t, std::unique_ptr<const std::string>>
      map_ IOFA_GUARDED_BY(mu_);
};

class IonDaemon {
 public:
  IonDaemon(int id, IonParams params, EmulatedPfs& pfs);
  ~IonDaemon();

  IonDaemon(const IonDaemon&) = delete;
  IonDaemon& operator=(const IonDaemon&) = delete;

  int id() const { return id_; }
  int workers() const { return static_cast<int>(shards_.size()); }
  int flushers() const { return static_cast<int>(flushers_.size()); }

  /// Offer a request. kBusy is the fast retryable overload answer
  /// (saturation past the admission watermark, or an ion.<id>.busy
  /// fault); an accepted request blocks only on the shard queue (an
  /// inline dispatch waits for nothing but its continuation) and is
  /// guaranteed to end in exactly one of the ledger's admitted /
  /// expired / failed buckets (qos.tenant.*).
  SubmitResult try_submit(FwdRequest req,
                          SubmitMode mode = SubmitMode::kQueue);

  /// Legacy enqueue (blocking when the ingest queue is full). Returns
  /// false when the request was not accepted (down, or busy when
  /// admission control is enabled).
  bool submit(FwdRequest req) {
    return try_submit(std::move(req)) == SubmitResult::kAccepted;
  }

  /// Block until every accepted request has been dispatched AND every
  /// staged write has been flushed to the PFS.
  void drain() IOFA_EXCLUDES(pending_mu_);

  /// Stop accepting requests, drain, and join the worker threads.
  void shutdown();

  // --- failure surface -------------------------------------------------
  /// Kill the daemon (tests / manual chaos): submits are refused, queued
  /// and in-flight requests complete with kIonDown. Staged data and the
  /// flushers survive - node-local storage outlives the daemon process,
  /// which is what makes restart() meaningful.
  void crash() { crashed_manual_.store(true); }
  /// Undo crash(); an injector-scheduled crash window still applies.
  /// Requests that survived the outage in ingest queues are restamped
  /// from here, so fwd.ion.queue_wait_us never bills the down window.
  void restart() {
    raise_restamp_floor();
    crashed_manual_.store(false);
  }
  /// Heartbeat the HealthMonitor samples: accepting and serving work.
  bool alive() const { return running_.load() && !is_crashed(); }

  // --- overload surface ------------------------------------------------
  /// Saturation score in [0, inf); >= 1.0 means past the admission
  /// high-watermark. Always 0 while admission control is disabled.
  double saturation() const;
  /// Overloaded-but-alive: refusing new work yet still serving. The
  /// HealthMonitor turns this into an arbiter load hint, never an
  /// eviction.
  bool overloaded() const { return admission_.rejects(saturation()); }
  /// Load hint fed to the arbiter. Without QoS this is the raw
  /// saturation score; with QoS the borrowed (sheddable) share of the
  /// granted bandwidth is discounted - an ION drowning in best-effort
  /// loans frees up the instant lenders reclaim, so it advertises less
  /// load than one saturated by reserved traffic.
  double load_hint_score() const {
    const double score = saturation();
    if (!params_.qos) return score;
    return score * (1.0 - params_.qos->sheddable_fraction());
  }

  // --- stats -----------------------------------------------------------
  // The daemon reports into the telemetry registry ("fwd.ion.*",
  // labelled with the ion id); Stats is kept as a compatibility view
  // computed from those counters relative to this daemon's construction
  // (daemon ids recur across services within one process).
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t dispatches = 0;
    Bytes bytes_in = 0;
    Bytes bytes_flushed = 0;
    std::uint64_t reads_local = 0;  ///< served from the staging store
    std::uint64_t reads_pfs = 0;
  };
  Stats stats() const;
  std::size_t queue_depth() const { return queue_depth_.load(); }
  /// The intern table (tests assert interned == distinct files).
  const PathTable& paths() const { return paths_; }

 private:
  struct FlushItem {
    std::uint64_t file_id = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    Payload payload;  ///< slab handle; released after the PFS write
    bool fsync = false;  ///< marker: completes once its barrier is met
    /// Fsync barrier: the seq of the last data item enqueued
    /// (daemon-wide) before this marker; the marker completes once every
    /// seq up to it has drained.
    std::uint64_t barrier = 0;
    /// The marker's continuation, or a write-through write's own (null
    /// for write-behind data items, which were acked at stage time).
    std::shared_ptr<CompletionSink> done;
    /// Write-through item: overload accounting (admitted / failed)
    /// happens at flush time instead of stage time.
    bool write_through = false;
    /// Originating tenant, carried to the flush-time accounting sites
    /// (fsync admits, write-through admits/fails).
    std::uint32_t tenant = 0;
    /// Daemon-wide enqueue sequence (data items only): the extent
    /// gate's ordering key for cross-flusher last-writer-wins.
    std::uint64_t seq = 0;
  };

  /// What an inline dispatch took before it committed, so process()
  /// never waits for it: the relay tokens and, for a write or fsync
  /// marker, one flush-queue slot (cleared once an enqueue used it). A
  /// read comes from the one source fixed at eligibility: staging when its
  /// range is pinned dirty, else the PFS with its charge paid.
  struct InlineHold {
    bool flush_slot = false;
    bool pinned = false;
  };

  /// One dispatch shard: a bounded ingest queue plus the scheduler
  /// state behind the shard's dispatch lock. The worker holds the lock
  /// whenever it touches that state (never while it waits on the
  /// queue); an inline dispatch holds it for its whole ingest ->
  /// process run, taken with try_lock only.
  struct Shard {
    Shard(std::size_t capacity, std::unique_ptr<agios::Scheduler> sched,
          std::string request_site)
        : ingest(capacity),
          scheduler(std::move(sched)),
          request_fault_site(std::move(request_site)) {}
    Mutex mu;
    BoundedQueue<FwdRequest> ingest;
    /// Accepted requests headed for the ingest queue and not yet handed
    /// to the scheduler: raised before the push, lowered under `mu`
    /// after ingest. Non-zero means an older request may still be
    /// behind an inline one (the worker can hold it popped but not yet
    /// scheduled), so inline dispatch waits for zero.
    std::atomic<std::size_t> unscheduled{0};
    std::unique_ptr<agios::Scheduler> scheduler IOFA_GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, FwdRequest> in_flight
        IOFA_GUARDED_BY(mu);
    std::uint64_t next_tag IOFA_GUARDED_BY(mu) = 1;
    /// Request-level fault site: at workers == 1 the legacy name keeps
    /// fault-seed replay byte-identical with the serial daemon; sharded
    /// pipelines get one deterministic stream per shard.
    const std::string request_fault_site;
    std::thread worker;
  };

  void worker_loop(std::size_t si);
  void flusher_loop(std::size_t fi);
  /// Per-shard scheduler factory: the configured AGIOS scheduler,
  /// wrapped in the tenant-weighted decorator when QoS is active.
  std::unique_ptr<agios::Scheduler> make_shard_scheduler() const;
  /// Take one accepted request off the ingest path: queue-wait
  /// observation, deadline expiry, the admission fault site, then fsync
  /// markers completed (barrier met) or to the flush queue, and
  /// everything else to the scheduler. `hold` as for process().
  void ingest_one(Shard& shard, FwdRequest&& req,
                  InlineHold* hold = nullptr) IOFA_REQUIRES(shard.mu);
  /// Run ingest -> schedule -> process for the request on the calling
  /// thread if the shard is idle and nothing would wait. False sends
  /// `req` to the queue, and `shard.unscheduled` already counts it.
  bool dispatch_inline(Shard& shard, FwdRequest& req);
  /// dispatch_inline() once the dispatch lock is held.
  bool run_inline(Shard& shard, FwdRequest& req) IOFA_REQUIRES(shard.mu);
  /// Stage, ack or read back one dispatch. `hold` is set on the inline
  /// path: the tokens are paid and a write's flush slot is reserved.
  void process(Shard& shard, const agios::Dispatch& dispatch,
               InlineHold* hold = nullptr) IOFA_REQUIRES(shard.mu);
  /// Complete a fsync marker (barrier wait + ack).
  void flush_marker(FlushItem& item) IOFA_EXCLUDES(flush_mu_);
  /// Every flush item enqueued so far has drained: a marker ingested
  /// now has its barrier met, and a new item has nothing to wait for.
  bool flush_idle() const IOFA_EXCLUDES(flush_mu_);
  /// Register an inline-dispatched write's flush item for a flush on
  /// the calling thread (seq, extent gate, pending count) when it cannot
  /// wait: the flush pipeline is idle and the PFS charge is paid now.
  /// False leaves `item` for enqueue_flush().
  bool claim_inline_flush(FlushItem& item)
      IOFA_EXCLUDES(flush_enqueue_mu_, flush_mu_);
  /// Write one run of same-file, offset-contiguous, seq-consecutive
  /// items (run.size() == 1 for uncoalesced traffic) as a
  /// scatter-gather PFS dispatch, then settle each item's accounting.
  /// A `charged` run was paid by claim_inline_flush().
  void flush_run(std::span<FlushItem> run, bool charged = false)
      IOFA_EXCLUDES(flush_mu_);
  Seconds now() const;

  std::size_t shard_of(std::uint64_t file_id, FwdOp op) const;

  /// Enqueue a data item / fsync marker. Serialised by
  /// flush_enqueue_mu_ so queue order is seq order and a marker's
  /// barrier count can never be overtaken by a later data item. Data
  /// items are also registered in the extent gate here (enqueue time),
  /// so a flusher always sees every earlier overlapping extent,
  /// drained or not. Waits for a queue slot first, with no lock of its
  /// own held, unless the caller already reserved one (`slot_reserved`).
  void enqueue_flush(FlushItem item, bool slot_reserved = false)
      IOFA_EXCLUDES(flush_enqueue_mu_);

  /// Block until no registered same-file extent with seq < `seq`
  /// overlaps [lo, hi) (the last-writer-wins order gate). Waits only on
  /// strictly older runs, so gate chains terminate.
  void await_extent_turn(std::uint64_t file_id, std::uint64_t seq,
                         std::uint64_t lo, std::uint64_t hi)
      IOFA_EXCLUDES(flush_mu_);

  /// Run the request's continuation (if any) on the calling worker,
  /// inline dispatcher or flusher, then settle its pending count.
  /// Callers hold no daemon lock but, on the dispatch side, their shard
  /// lock: the continuation may send a response frame or wake a caller.
  void complete(std::shared_ptr<CompletionSink> done, Completion result)
      IOFA_EXCLUDES(flush_enqueue_mu_, flush_mu_, dirty_mu_, pending_mu_);

  bool is_crashed() const {
    return crashed_manual_.load() ||
           (params_.injector && !params_.injector->ion_alive(id_));
  }
  /// Bump the queue-wait restamp floor to "now": waits observed by
  /// ingest after a crash-restart only count time since the restart.
  void raise_restamp_floor();
  /// Fail one accepted-but-unserved request (crash path).
  void fail_request(FwdRequest& req);
  /// Fail everything one shard holds (in-flight + scheduler).
  void fail_in_flight(Shard& shard) IOFA_REQUIRES(shard.mu);

  /// Dirty extent bookkeeping per file (staged but not yet flushed):
  /// mark_dirty registers one extent, mark_clean releases it.
  void mark_dirty(std::uint64_t file_id, std::uint64_t offset,
                  std::uint64_t size) IOFA_EXCLUDES(dirty_mu_);
  void mark_clean(std::uint64_t file_id, std::uint64_t offset,
                  std::uint64_t size) IOFA_EXCLUDES(dirty_mu_);
  /// Where the bytes of a read's range are (an empty range is kMixed).
  enum class Coverage { kMixed, kDirty, kClean };
  /// Classify [offset, offset + size). A wholly dirty range is pinned:
  /// one more extent is registered over it, so a flush cannot clean it
  /// until mark_clean() releases the pin.
  Coverage pin_if_dirty(std::uint64_t file_id, std::uint64_t offset,
                        std::uint64_t size) IOFA_EXCLUDES(dirty_mu_);
  /// End of the maximal segment [lo, end) of [lo, hi) whose bytes are
  /// all dirty or all clean; `dirty` reports which.
  std::uint64_t dirty_run_end(std::uint64_t file_id, std::uint64_t lo,
                              std::uint64_t hi, bool& dirty) const
      IOFA_EXCLUDES(dirty_mu_);

  int id_;
  IonParams params_;
  EmulatedPfs& pfs_;
  // The relay's aggregate capacity - the QoS hierarchy's ROOT, not a
  // per-tenant limiter, so it legitimately sits outside it.
  TokenBucket ingest_bucket_;  // iofa-lint: allow(raw-token-bucket)

  // Shard and flusher vectors are sized in the constructor and never
  // resized, so the vectors themselves are safe to read concurrently.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The one flush queue every flusher pops, in enqueue-seq order.
  BoundedQueue<FlushItem> flush_queue_;
  std::vector<std::thread> flushers_;

  gkfs::ChunkStore staging_;
  PathTable paths_;
  mutable Mutex dirty_mu_;
  // file_id -> coverage step function: segment start -> number of
  // staged extents not yet flushed that cover the segment. Each write
  // registers its own extent and its flush releases only that one, so
  // an overlapping newer write stays dirty until it is flushed itself;
  // an abandoned flush never releases its extent.
  std::unordered_map<std::uint64_t, std::map<std::uint64_t, int>> dirty_
      IOFA_GUARDED_BY(dirty_mu_);

  iofa::MonotonicClock::time_point epoch_;

  // Drain accounting: the counter is atomic (hot path is lock-free); the
  // mutex+cv pair only serialises the zero-crossing notification that
  // drain() sleeps on.
  mutable Mutex pending_mu_;
  CondVar pending_cv_;
  /// Accepted requests not yet completed + flush items not yet on the
  /// PFS (a flush item is counted before its request settles).
  std::atomic<std::uint64_t> pending_{0};
  void finish_pending() IOFA_EXCLUDES(pending_mu_);

  // Fsync barrier and extent-gate accounting for the flusher pool.
  Mutex flush_enqueue_mu_;
  mutable Mutex flush_mu_;
  CondVar flush_cv_;
  /// data items enqueued towards the flushers (markers excluded); also
  /// the source of FlushItem::seq
  std::uint64_t flush_enqueued_ IOFA_GUARDED_BY(flush_mu_) = 0;
  /// Drain watermark: every data item with seq <= this has drained
  /// (flushed or abandoned). Flushers finish items out of seq order, so
  /// a plain count could pass a barrier while an older item is still in
  /// flight; drained seqs above the watermark wait in a min-heap until
  /// the gap below them closes.
  std::uint64_t flush_drained_ IOFA_GUARDED_BY(flush_mu_) = 0;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      flush_drained_ahead_ IOFA_GUARDED_BY(flush_mu_);
  /// Extent gate: every enqueued-but-unwritten data extent, per file,
  /// keyed by enqueue seq. A flusher waits until no overlapping extent
  /// with a smaller seq remains registered.
  std::unordered_map<std::uint64_t,
                     std::map<std::uint64_t,
                              std::pair<std::uint64_t, std::uint64_t>>>
      flush_extents_ IOFA_GUARDED_BY(flush_mu_);

  std::atomic<bool> running_{true};
  std::atomic<bool> crashed_manual_{false};
  /// Requests queued before this monotonic stamp have their queue-wait
  /// measured from the stamp instead (crash-restart restamping).
  std::atomic<std::uint64_t> restamp_floor_us_{0};
  /// Requests currently sitting in ingest queues (O(1) admission
  /// criterion; the old implementation summed every shard per submit).
  std::atomic<std::size_t> queue_depth_{0};
  /// Seed for the flushers' deterministic retry jitter.
  std::uint64_t flush_seed_ = 0;

  /// Admission control: saturation scoring and the watermark rule.
  const SaturationTracker admission_{params_.admission};
  /// Fault site for forced IonBusy answers ("ion.<id>.busy").
  std::string busy_site_;
  /// Admission-level fault site ("ion.<id>"), drawn once per ingest.
  std::string admit_site_;
  /// The scheduler releases every request at once (FIFO without the QoS
  /// decorator), no dispatch_latency is modelled and no fault event can
  /// stall or fail a dispatch: the configuration inline dispatch needs.
  /// Each request is then checked on its own.
  bool inline_eligible_ = false;
  /// Inline eligible and no pfs.write event in the PFS's fault plan, so
  /// an inline write's flush draws only passing decisions and is never
  /// retried: it may run on the dispatching thread (claim_inline_flush).
  bool inline_flush_eligible_ = false;

  // Telemetry (lock-free on the hot path; registered at construction).
  struct Metrics {
    telemetry::Counter* requests = nullptr;
    telemetry::Counter* dispatches = nullptr;
    telemetry::Counter* bytes_in = nullptr;
    telemetry::Counter* bytes_flushed = nullptr;
    telemetry::Counter* reads_local = nullptr;
    telemetry::Counter* reads_pfs = nullptr;
    telemetry::Gauge* queue_depth = nullptr;
    telemetry::Gauge* workers = nullptr;
    telemetry::Histogram* request_latency_us = nullptr;
    telemetry::Histogram* dispatch_bytes = nullptr;
    telemetry::Histogram* queue_wait_us = nullptr;
    telemetry::Histogram* flush_batch_bytes = nullptr;
    telemetry::Counter* retries = nullptr;          ///< flush retries
    telemetry::Counter* flush_abandoned = nullptr;  ///< retry budget hit
    // Zero-copy pipeline instrumentation.
    telemetry::Counter* flush_coalesced_extents = nullptr;
    telemetry::Counter* path_interned = nullptr;
    /// Requests dispatched on the submitting thread (SubmitMode).
    telemetry::Counter* inline_dispatches = nullptr;
    /// Inline writes flushed on the submitting thread.
    telemetry::Counter* inline_flushes = nullptr;
    /// Fsync markers completed at ingest, their barrier already met.
    telemetry::Counter* fsync_met_at_ingest = nullptr;
    /// Worker wakes that took in and dispatched nothing.
    telemetry::Counter* idle_wakeups = nullptr;
    // Overload surface (outside the admission identity).
    telemetry::Counter* busy = nullptr;      ///< IonBusy answers
    telemetry::Gauge* saturation = nullptr;  ///< last admission score
  };
  Metrics metrics_;
  /// The admission ledger (qos/enforcer.hpp): IonParams::ledger, or a
  /// default-tenant table of its own. Accepted requests settle here, in
  /// the row of req.tenant.
  const qos::QosMetrics ledger_;
  Stats baseline_;  ///< counter values at construction (stats() view)
};

}  // namespace iofa::fwd
