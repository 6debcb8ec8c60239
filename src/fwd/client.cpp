#include "fwd/client.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <optional>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "fwd/wait_slot.hpp"
#include "gkfs/chunk.hpp"

namespace iofa::fwd {

Client::Client(ClientConfig config, ForwardingService& service)
    : config_(std::move(config)),
      service_(service),
      view_(service.mapping_port(), config_.job, config_.poll_period,
            config_.registry),
      epoch_(iofa::monotonic_now()),
      wrote_to_(std::make_unique<std::atomic<bool>[]>(
          static_cast<std::size_t>(service.ion_count()))) {
  auto& reg = config_.registry ? *config_.registry
                               : telemetry::Registry::global();
  const telemetry::Labels labels{{"job", std::to_string(config_.job)},
                                 {"app", config_.app_label}};
  forwarded_ctr_ = &reg.counter("fwd.client.forwarded_ops", labels);
  direct_ctr_ = &reg.counter("fwd.client.direct_ops", labels);
  bytes_ctr_ = &reg.counter("fwd.client.bytes", labels);
  retries_ctr_ = &reg.counter("fwd.retries", labels);
  failover_ctr_ = &reg.counter("fwd.failovers", labels);
  payload_allocs_ctr_ = &reg.counter("fwd.client.payload_allocs", labels);
  ledger_ = service_.ledger().tenant(config_.tenant);
  if (config_.breaker.enabled) {
    CircuitBreaker::Counters ctrs;
    ctrs.opened = &reg.counter("fwd.overload.breaker_open", labels);
    ctrs.half_opened = &reg.counter("fwd.overload.breaker_half_open", labels);
    ctrs.closed = &reg.counter("fwd.overload.breaker_closed", labels);
    breakers_.reserve(static_cast<std::size_t>(service_.ion_count()));
    for (int i = 0; i < service_.ion_count(); ++i) {
      // One jitter stream per (job, ion): open windows never sync up
      // across clients, and fault-seed replay stays byte-identical.
      breakers_.push_back(std::make_unique<CircuitBreaker>(
          config_.breaker,
          SplitMix64(config_.retry_seed ^
                     (0x9E3779B97F4A7C15ULL *
                      static_cast<std::uint64_t>(i + 1)))
              .next(),
          ctrs));
    }
  }
}

bool Client::breaker_allow(int ion) {
  if (breakers_.empty()) return true;
  return breakers_[static_cast<std::size_t>(ion)]->allow(now());
}

void Client::breaker_success(int ion) {
  if (breakers_.empty()) return;
  breakers_[static_cast<std::size_t>(ion)]->on_success(now());
}

void Client::breaker_failure(int ion) {
  if (breakers_.empty()) return;
  breakers_[static_cast<std::size_t>(ion)]->on_failure(now());
}

void Client::direct_write_pfs(const std::string& path, std::uint64_t offset,
                              std::uint64_t size,
                              std::span<const std::byte> data) {
  // The client owns durability on the direct path - no ION holds the
  // bytes - so injected PFS dispatch errors are retried until the
  // (idempotent, positional) write lands.
  for (int attempt = 1;; ++attempt) {
    if (service_.pfs().write(path, offset, size, data,
                             config_.stream_weight)) {
      return;
    }
    retries_ctr_->add();
    sleep_for_seconds(fault::backoff_delay(
        config_.backoff, attempt,
        config_.retry_seed ^ gkfs::hash_path(path) ^ offset ^ 0xD1UL));
  }
}

Seconds Client::now() const {
  return std::chrono::duration<double>(iofa::monotonic_now() -
                                       epoch_)
      .count();
}

void Client::record(std::uint32_t rank, trace::OpKind op,
                    const std::string& path, std::uint64_t offset,
                    std::uint64_t size, Seconds t0, Seconds t1) {
  if (!trace_) return;
  trace::RequestRecord rec;
  rec.rank = rank;
  rec.file_id = trace::hash_path(path);
  rec.op = op;
  rec.offset = offset;
  rec.size = size;
  rec.t_start = t0;
  rec.t_end = t1;
  trace_->append(rec);
}

std::size_t Client::scatter(std::uint32_t rank, FwdOp op,
                            const std::string& path, std::uint64_t offset,
                            std::uint64_t size,
                            std::span<const std::byte> wdata,
                            std::span<std::byte> rdata,
                            const std::vector<int>& targets) {
  // GekkoFS chunk distribution: one sub-request per chunk, each to the
  // chunk's home daemon - over ALL daemons in burst-buffer mode, over
  // the job's assigned ION subset in forwarding mode. Every chunk is
  // issued before any is waited on. Failure handling per sub-request:
  // a refusal (kRejected) moves on to the next ION of the same cycle at
  // no attempt's cost; a timeout or failed completion consumes an
  // attempt and starts a new cycle after a backoff; a cycle of refusals
  // or the last attempt ends in a direct-PFS rescue. Positional I/O is
  // idempotent, so a retried write that double-applies is
  // indistinguishable from one that applied once.
  (void)rank;
  const std::uint64_t id = gkfs::hash_path(path);
  const auto daemons = targets.size();
  struct Pending {
    /// The current attempt's continuation (a fresh slot per attempt).
    std::shared_ptr<WaitSlot> wait;
    /// Handle on the attempt's payload slab (kept so a read completion
    /// can be copied out; dropping it recycles the slab).
    Payload buf;
    std::uint64_t file_offset = 0;
    std::uint64_t sub_size = 0;
    std::uint64_t rel = 0;
    std::size_t start = 0;   ///< index into `targets` the cycle began at
    std::size_t offered = 0; ///< cycle positions used so far
    std::size_t slot = 0;    ///< index into `targets` of the current offer
    std::size_t served = 0;  ///< slot of the last accepted attempt
    int attempts = 0;        ///< accepted attempts so far
  };

  auto make_request = [&](const Pending& p) {
    FwdRequest req;
    req.op = op;
    req.path = path;
    req.file_id = id;
    req.offset = p.file_offset;
    req.size = p.sub_size;
    req.tenant = config_.tenant;
    if (op == FwdOp::Write && !wdata.empty()) {
      // The ONE fill of the payload bytes: user buffer -> slab. From
      // here the slab is referenced (never copied) through the daemon
      // pipeline until the PFS scatter-gather write reads it.
      req.payload = service_.acquire_payload(p.sub_size);
      if (!req.payload.slab_backed()) payload_allocs_ctr_->add();
      auto sub = wdata.subspan(p.rel, p.sub_size);
      std::memcpy(req.payload.span().data(), sub.data(), sub.size());
    } else if (op == FwdOp::Read && !rdata.empty()) {
      // Fresh buffer per attempt: an abandoned (timed-out) request may
      // still complete into ITS buffer later without racing ours.
      req.payload = service_.acquire_payload(p.sub_size);
      if (!req.payload.slab_backed()) payload_allocs_ctr_->add();
    }
    const double budget_us = config_.request_timeout * 1e6;
    if (budget_us > 0.0 && budget_us < 1e18) {
      // Absolute deadline: once the client would have given up anyway,
      // the daemon may drop the request at dequeue instead of spending
      // saturated dispatch capacity on it. A timeout too long for a
      // microsecond stamp (inf included) leaves the request without one.
      req.deadline_us =
          monotonic_micros() + static_cast<std::uint64_t>(budget_us);
    }
    return req;
  };

  // Offer the sub-request to the next ION of its cycle (one pass over
  // `targets` from p.start); false once the cycle is used up. `mode` is
  // kInlineWhenIdle when this thread waits for the offer next.
  auto offer = [&](Pending& p, SubmitMode mode) {
    while (p.offered < daemons) {
      const std::size_t slot = (p.start + p.offered++) % daemons;
      const int ion = targets[slot];
      // An open breaker means "stop offering work": skip the ION
      // without submitting (half-open windows admit their budgeted
      // probes through this same check).
      if (!breaker_allow(ion)) continue;
      FwdRequest req = make_request(p);
      p.wait = wait_on(req);
      p.buf = req.payload;  // add_ref, not a byte copy
      p.slot = slot;
      ledger_.on_submitted(p.sub_size);
      service_.ion_port(ion).issue(std::move(req), mode);
      return true;
    }
    return false;
  };
  auto new_cycle = [&](Pending& p, std::size_t start, SubmitMode mode) {
    p.start = start;
    p.offered = 0;
    return offer(p, mode);
  };

  // Rescue path: the op bypasses forwarding entirely. Direct writes
  // retry through injected PFS dispatch errors until they land - the
  // client owns durability once no ION holds the bytes.
  auto direct_rescue = [&](Pending& p) -> std::size_t {
    ledger_.on_direct_fallback(p.sub_size);
    // Graceful degradation is bandwidth-capped: every client of the
    // deployment shares one limiter, so a storm of open breakers
    // cannot stampede the PFS (the ZERO-policy route is rationed).
    if (auto* limiter = service_.fallback_limiter()) {
      limiter->acquire(static_cast<double>(p.sub_size));
    }
    if (op == FwdOp::Write) {
      direct_write_pfs(path, p.file_offset, p.sub_size,
                       wdata.empty() ? std::span<const std::byte>()
                                     : wdata.subspan(p.rel, p.sub_size));
      return p.sub_size;
    }
    auto out = rdata.empty() ? std::span<std::byte>()
                             : rdata.subspan(p.rel, p.sub_size);
    return service_.pfs().read(path, p.file_offset, p.sub_size, out,
                               config_.stream_weight);
  };

  std::vector<Pending> pending;
  std::size_t n = 0;
  const auto slices = gkfs::split_range(offset, size);
  for (const auto& slice : slices) {
    // Earlier slices queue, so a multi-chunk op keeps its IONs working
    // in parallel; the last may run on this thread, which only waits
    // once every slice is offered.
    const SubmitMode mode = &slice == &slices.back()
                                ? SubmitMode::kInlineWhenIdle
                                : SubmitMode::kQueue;
    Pending p;
    p.file_offset = slice.file_offset;
    p.sub_size = slice.size;
    p.rel = slice.file_offset - offset;
    p.served = gkfs::daemon_of(id, slice.chunk, daemons);
    if (new_cycle(p, p.served, mode)) {
      pending.push_back(std::move(p));
    } else {
      n += direct_rescue(p);  // every breaker is open
    }
  }
  for (auto& p : pending) {
    for (;;) {
      const int ion = targets[p.slot];
      const std::optional<Completion> c =
          service_.ion_port(ion).wait(*p.wait, config_.request_timeout);
      if (c && c->status == CompletionStatus::kRejected) {
        // IonBusy or down: a fast, counted refusal that feeds the
        // breaker - not a timeout masquerading as a failure.
        ledger_.on_rejected();
        breaker_failure(ion);
        if (!offer(p, SubmitMode::kInlineWhenIdle)) {
          n += direct_rescue(p);
          break;
        }
        continue;
      }
      // Accepted (a timed-out attempt is one the ION held). A failover
      // is an accepted attempt served by another ION than the last one
      // (than the chunk's home ION for the first).
      if (p.slot != p.served) failover_ctr_->add();
      p.served = p.slot;
      if (++p.attempts == 1) {
        forwarded_ops_.fetch_add(1);
        forwarded_ctr_->add();
      }
      if (c && c->ok()) {
        breaker_success(ion);
        auto& wrote = wrote_to_[static_cast<std::size_t>(ion)];
        if (op == FwdOp::Write && !wrote.load()) {
          wrote.store(true);
        }
        if (op == FwdOp::Read && !p.buf.empty() && !rdata.empty()) {
          std::memcpy(rdata.data() + p.rel, p.buf.span().data(),
                      std::min<std::size_t>(c->value, p.buf.size()));
        }
        n += c->value;
        break;
      }
      breaker_failure(ion);
      retries_ctr_->add();
      if (p.attempts >= config_.max_attempts) {
        n += direct_rescue(p);
        break;
      }
      sleep_for_seconds(fault::backoff_delay(
          config_.backoff, p.attempts,
          config_.retry_seed ^ id ^ p.file_offset));
      // Next ION of the epoch (same one when it is the only target).
      if (!new_cycle(p, daemons > 1 ? (p.slot + 1) % daemons : 0,
                     SubmitMode::kInlineWhenIdle)) {
        n += direct_rescue(p);
        break;
      }
    }
  }
  return n;
}

std::size_t Client::pwrite(std::uint32_t rank, const std::string& path,
                           std::uint64_t offset, std::uint64_t size,
                           std::span<const std::byte> data) {
  const Seconds t0 = now();
  std::size_t n = 0;
  if (config_.mode == ClientMode::BurstBuffer) {
    n = scatter(rank, FwdOp::Write, path, offset, size, data, {},
                all_daemons());
  } else {
    const auto ions = view_.ions();
    if (ions.empty()) {
      direct_write_pfs(path, offset, size, data);
      n = size;
      direct_ops_.fetch_add(1);
      direct_ctr_->add();
    } else {
      n = scatter(rank, FwdOp::Write, path, offset, size, data, {}, ions);
    }
  }
  bytes_ctr_->add(n);
  record(rank, trace::OpKind::Write, path, offset, size, t0, now());
  return n;
}

std::size_t Client::pread(std::uint32_t rank, const std::string& path,
                          std::uint64_t offset, std::uint64_t size,
                          std::span<std::byte> out) {
  const Seconds t0 = now();
  std::size_t n = 0;
  if (config_.mode == ClientMode::BurstBuffer) {
    n = scatter(rank, FwdOp::Read, path, offset, size, {}, out,
                all_daemons());
  } else {
    const auto ions = view_.ions();
    if (ions.empty()) {
      n = service_.pfs().read(path, offset, size, out,
                              config_.stream_weight);
      direct_ops_.fetch_add(1);
      direct_ctr_->add();
    } else {
      n = scatter(rank, FwdOp::Read, path, offset, size, {}, out, ions);
    }
  }
  bytes_ctr_->add(n);
  record(rank, trace::OpKind::Read, path, offset, size, t0, now());
  return n;
}

void Client::fsync(const std::string& path) {
  // Chunks are scattered in burst-buffer mode, so every daemon may hold
  // staged data; a forwarding job's are its IONs plus those it wrote
  // through under an earlier mapping. Direct writes are already on the
  // PFS. A write acknowledged after its ION's flag is taken here sets it
  // again for the next fsync.
  std::vector<int> ions = config_.mode == ClientMode::BurstBuffer
                              ? all_daemons()
                              : view_.ions();
  for (int ion = 0; ion < service_.ion_count(); ++ion) {
    if (wrote_to_[static_cast<std::size_t>(ion)].exchange(false) &&
        std::find(ions.begin(), ions.end(), ion) == ions.end()) {
      ions.push_back(ion);
    }
  }
  const std::uint64_t file_id = gkfs::hash_path(path);
  std::vector<std::shared_ptr<WaitSlot>> waits;
  waits.reserve(ions.size());
  for (int ion : ions) {
    FwdRequest req;
    req.op = FwdOp::Fsync;
    req.path = path;
    req.file_id = file_id;
    req.tenant = config_.tenant;
    waits.push_back(wait_on(req));
    // Fsync bypasses the breakers: it is a durability barrier for data
    // already staged on that ION, not new load to shed. The daemon
    // exempts markers from admission control for the same reason. Each
    // is offered before any is waited for, so the IONs drain together.
    ledger_.on_submitted(0);
    service_.ion_port(ion).issue(std::move(req), SubmitMode::kInlineWhenIdle);
  }
  for (std::size_t i = 0; i < ions.size(); ++i) {
    // Any other failure status means the ION crashed mid-fsync. Its
    // flusher keeps draining the staged data (node-local storage
    // survives), so durability is a matter of time, not of this marker.
    const std::optional<Completion> c =
        service_.ion_port(ions[i]).wait(*waits[i], 0.0);
    if (c && c->status == CompletionStatus::kRejected) ledger_.on_rejected();
  }
}

std::vector<int> Client::all_daemons() const {
  std::vector<int> out(static_cast<std::size_t>(service_.ion_count()));
  for (int d = 0; d < service_.ion_count(); ++d) {
    out[static_cast<std::size_t>(d)] = d;
  }
  return out;
}

}  // namespace iofa::fwd
