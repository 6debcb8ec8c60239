#include "fwd/rpc_endpoints.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "fault/backoff.hpp"
#include "fwd/mapping.hpp"
#include "fwd/service.hpp"

namespace iofa::fwd {

namespace {

// The wire enums are pinned to the in-process ones so the endpoint
// conversions below are lookup-free and cannot silently drift.
template <typename Wire, typename Local>
constexpr bool pinned(Wire w, Local l) {
  return static_cast<int>(w) == static_cast<int>(l);
}
static_assert(pinned(rpc::WireOp::kWrite, FwdOp::Write) &&
              pinned(rpc::WireOp::kRead, FwdOp::Read) &&
              pinned(rpc::WireOp::kFsync, FwdOp::Fsync));
static_assert(pinned(rpc::WireStatus::kOk, CompletionStatus::kOk) &&
              pinned(rpc::WireStatus::kIonDown, CompletionStatus::kIonDown) &&
              pinned(rpc::WireStatus::kExpired, CompletionStatus::kExpired) &&
              pinned(rpc::WireStatus::kError, CompletionStatus::kError) &&
              pinned(rpc::WireStatus::kRejected,
                     CompletionStatus::kRejected));

/// Request ids a server remembers for duplicate suppression. Entries
/// whose response is still pending are never evicted; a much smaller
/// window would evict outcomes while their duplicates are still in
/// flight.
constexpr std::size_t kDedupWindow = 4096;
/// Round trips for a mapping fetch or publish before giving up (a lost
/// publish behaves like a dropped mapping file: the HealthMonitor
/// self-heals it; a failed fetch keeps the client's cached view).
constexpr int kMappingAttempts = 4;

telemetry::Registry& reg_of(telemetry::Registry* registry) {
  return registry ? *registry : telemetry::Registry::global();
}

}  // namespace

// --- LinkReceiver ----------------------------------------------------------

LinkReceiver::LinkReceiver(rpc::Transport& transport,
                           rpc::Transport::Handler handler,
                           telemetry::Counter& follower_waits)
    : transport_(transport), follower_waits_(follower_waits) {
  pulled_ = transport_.set_caller_driven_handler(rpc::kClientSide,
                                                 std::move(handler));
}

bool LinkReceiver::take_turn(WaitSlot& slot, bool done, Seconds until,
                             bool& leading) {
  {
    MutexLock lk(mu_);
    const auto mine = std::find(sleepers_.begin(), sleepers_.end(), &slot);
    if (done || monotonic_seconds() >= until) {
      if (mine != sleepers_.end()) sleepers_.erase(mine);
      if (leading) receiving_ = false;
      // Whoever leaves while nobody leads wakes one sleeper to lead.
      if (!receiving_ && !sleepers_.empty()) {
        sleepers_.front()->nudge();
        sleepers_.erase(sleepers_.begin());
      }
      return false;
    }
    if (!leading && pulled_) {
      if (!receiving_) {
        // A frame read before the role was free may have settled this
        // call: the caller looks again before the first receive.
        if (mine != sleepers_.end()) sleepers_.erase(mine);
        leading = receiving_ = true;
        return true;
      }
      if (mine == sleepers_.end()) sleepers_.push_back(&slot);
      follower_waits_.add();
    }
  }
  Seconds nap = until - monotonic_seconds();
  if (leading) {
    const rpc::Received r = transport_.receive(rpc::kClientSide, until);
    if (r == rpc::Received::kFrame || r == rpc::Received::kTimeout) {
      return true;
    }
    // On a closed link nothing more comes: sleep out the slice. While a
    // sender waiting for room reads the link, look again in a
    // millisecond, in case it leaves before this call settles.
    if (r == rpc::Received::kBusy) nap = std::min(nap, 1e-3);
  }
  slot.wait_for(nap);
  return true;
}

// --- RpcIonClient ----------------------------------------------------------

RpcIonClient::RpcIonClient(rpc::Transport& transport, int ion,
                           const rpc::RpcOptions& options,
                           std::uint64_t seed,
                           telemetry::Registry* registry)
    : transport_(transport), options_(options), seed_(seed),
      receiver_(transport,
                [this](std::vector<std::byte> f) { on_frame(std::move(f)); },
                reg_of(registry).counter(
                    "rpc.follower_waits",
                    {{"link", "ion." + std::to_string(ion)}})) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "ion." + std::to_string(ion)}};
  retries_ctr_ = &reg.counter("rpc.retries", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
}

void RpcIonClient::issue(FwdRequest req, SubmitMode /*mode*/) {
  const std::uint64_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed);

  rpc::SubmitRequestMsg msg;
  msg.op = static_cast<rpc::WireOp>(req.op);
  msg.tenant = req.tenant;
  msg.file_id = req.file_id;
  msg.offset = req.offset;
  msg.size = req.size;
  msg.deadline_us = req.deadline_us;
  msg.path = req.path;
  // Serialised straight from the slab: the frame is the one wire copy
  // inherent to a message boundary, and every resend borrows it.
  std::span<const std::byte> payload;
  if (req.op == FwdOp::Write) payload = req.payload.span();
  std::vector<std::byte> frame = rpc::encode(id, msg, payload);

  {
    MutexLock lk(mu_);
    ids_.emplace(req.done.get(), id);
    PendingCall& call = pending_[id];
    call.done = std::move(req.done);
    if (req.op == FwdOp::Read) call.payload = std::move(req.payload);
  }
  frames_sent_ctr_->add();
  transport_.send(rpc::kClientSide, frame);
  // Keep the frame for the waiter's resends, unless the answer already
  // arrived during the send.
  MutexLock lk(mu_);
  const auto it = pending_.find(id);
  if (it != pending_.end()) it->second.frame = std::move(frame);
}

std::optional<Completion> RpcIonClient::wait(WaitSlot& slot,
                                             Seconds timeout) {
  std::uint64_t id = 0;
  {
    MutexLock lk(mu_);
    const auto it = ids_.find(&slot);
    if (it == ids_.end()) return slot.wait();  // answered already
    id = it->second;
    pending_[id].waiter = &slot;
  }
  const Seconds give_up = timeout > 0.0
                             ? monotonic_seconds() + timeout
                             : std::numeric_limits<Seconds>::infinity();
  std::vector<std::byte> frame;
  for (int resend = 1;; ++resend) {
    // One slice per send: the ack window plus the deterministic jittered
    // backoff (stream keyed by the request id, so replays of the same
    // seed resend at the same instants). Past the request timeout the
    // waiter also stops at a held ack.
    const Seconds slice =
        options_.ack_timeout +
        fault::backoff_delay(options_.retry_backoff, resend, seed_ ^ id);
    const Seconds now = monotonic_seconds();
    const bool past = now >= give_up;
    receiver_.wait(slot, now + (past ? slice : std::min(slice, give_up - now)),
                   [&] {
                     MutexLock lk(mu_);
                     const auto it = pending_.find(id);
                     return it == pending_.end() || (past && it->second.held);
                   });
    {
      MutexLock lk(mu_);
      const auto it = pending_.find(id);
      if (it == pending_.end()) break;  // the response landed
      if (it->second.held && monotonic_seconds() >= give_up) {
        // Handoff rule: give up only once the ION said it holds the
        // request; until then, resend at once and wait for an answer.
        ids_.erase(&slot);
        pending_.erase(it);  // with the read slab it held
        return std::nullopt;
      }
      frame = it->second.frame;  // resends are rare; copy, send unlocked
    }
    retries_ctr_->add();
    frames_sent_ctr_->add();
    transport_.send(rpc::kClientSide, frame);
  }
  return slot.wait();  // completed by on_frame right after the erase
}

void RpcIonClient::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  const rpc::Decoded decoded = rpc::decode(frame);
  if (!decoded.ok()) {
    // Malformed frame (a truncate drill, or wire damage): drop it; the
    // waiter's next resend fetches the answer again.
    codec_errors_ctr_->add();
    return;
  }
  const auto* rsp = std::get_if<rpc::SubmitResponseMsg>(&decoded.msg);
  std::shared_ptr<CompletionSink> done;
  Payload dst;
  {
    MutexLock lk(mu_);
    const auto it = pending_.find(decoded.request_id);
    if (it == pending_.end()) return;  // settled, or its waiter gave up
    if (rsp) {
      done = std::move(it->second.done);
      dst = std::move(it->second.payload);
      ids_.erase(done.get());
      pending_.erase(it);
    } else if (std::holds_alternative<rpc::SubmitAckMsg>(decoded.msg)) {
      it->second.held = true;
      // A sleeping waiter past its request timeout gives up now.
      if (it->second.waiter) it->second.waiter->nudge();
    }
  }
  if (!done) return;
  const Completion result{static_cast<CompletionStatus>(rsp->status),
                          static_cast<std::size_t>(rsp->value)};
  if (result.ok() && !dst.empty() && !rsp->data.empty()) {
    std::memcpy(dst.span().data(), rsp->data.data(),
                std::min(dst.size(), rsp->data.size()));
  }
  dst.reset();  // a completed call holds no slab
  // Outside the lock: the continuation wakes the caller.
  done->complete(result);
}

// --- RpcIonServer ----------------------------------------------------------

/// A request's continuation: encodes its one SubmitResponse (read data
/// straight from the server-side slab) for the server to send.
class RpcIonServer::ResponseSink final : public CompletionSink {
 public:
  ResponseSink(RpcIonServer& server, std::uint64_t id, Payload read_data)
      : server_(server), id_(id), data_(std::move(read_data)) {}

  void complete(Completion c) override {
    const rpc::SubmitResponseMsg rsp{static_cast<rpc::WireStatus>(c.status),
                                     c.value, {}};
    std::span<const std::byte> data;
    if (c.ok() && !data_.empty()) {
      data = data_.span().first(std::min(c.value, data_.size()));
    }
    auto frame = std::make_shared<const std::vector<std::byte>>(
        rpc::encode(id_, rsp, data));
    data_.reset();
    server_.respond(id_, std::move(frame));
  }

 private:
  RpcIonServer& server_;
  const std::uint64_t id_;
  Payload data_;
};

RpcIonServer::RpcIonServer(rpc::Transport& transport,
                           ForwardingService& service, int ion,
                           telemetry::Registry* registry)
    : transport_(transport), service_(service), ion_(ion) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "ion." + std::to_string(ion)}};
  dedup_hits_ctr_ = &reg.counter("rpc.dedup_hits", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
  transport_.set_handler(rpc::kServerSide,
                         [this](std::vector<std::byte> frame) {
                           on_frame(std::move(frame));
                         });
}

RpcIonServer::~RpcIonServer() {
  // The daemon completes every accepted request (crash fail-out
  // included), so this ends; behind a service it is a no-op.
  UniqueLock lk(mu_);
  while (outstanding_ != 0) idle_cv_.wait(lk);
}

void RpcIonServer::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  const rpc::Decoded decoded = rpc::decode(frame);
  if (!decoded.ok()) {
    codec_errors_ctr_->add();
    return;  // the stub's waiter resends an intact copy
  }
  const auto* msg = std::get_if<rpc::SubmitRequestMsg>(&decoded.msg);
  if (!msg) return;  // not ours (client-side frame echoed by a test)
  const std::uint64_t id = decoded.request_id;

  bool fresh = false;
  bool held = false;
  std::shared_ptr<const std::vector<std::byte>> cached;
  {
    MutexLock lk(mu_);
    const auto inserted = dedup_.try_emplace(id);
    fresh = inserted.second;
    if (fresh) {
      outstanding_ += 2;  // its response, and this handler's own return
    } else {
      dedup_hits_ctr_->add();
      held = inserted.first->second.accepted;
      cached = inserted.first->second.response;
    }
  }
  if (!fresh) {
    // Duplicate (chaos dup or the waiter's resend): never touch the
    // daemon. Replay the answer of a settled request, say "held" for
    // one the daemon has, and nothing while the original is still
    // being offered.
    if (cached) {
      frames_sent_ctr_->add();
      transport_.send(rpc::kServerSide, *cached);
    } else if (held) {
      frames_sent_ctr_->add();
      transport_.send(rpc::kServerSide, rpc::encode(id, rpc::SubmitAckMsg{}));
    }
    return;
  }

  // Fresh request: rebuild the FwdRequest (payload re-materialised
  // from the deployment slab pool) and offer it to the daemon. decode()
  // already checked the payload against the op and size.
  FwdRequest req;
  req.op = static_cast<FwdOp>(msg->op);
  req.path = msg->path;
  req.file_id = msg->file_id;
  req.offset = msg->offset;
  req.size = msg->size;
  req.deadline_us = msg->deadline_us;
  req.tenant = msg->tenant;
  Payload read_data;
  if (req.op == FwdOp::Write && !msg->payload.empty()) {
    req.payload = service_.acquire_payload(msg->payload.size());
    std::memcpy(req.payload.span().data(), msg->payload.data(),
                msg->payload.size());
  } else if (req.op == FwdOp::Read && msg->size > 0 &&
             service_.pfs().params().store_data) {
    // Reads materialise a server-side buffer only when the deployment
    // stores data at all; accounting-only deployments answer with
    // sizes, not bytes.
    req.payload = service_.acquire_payload(msg->size);
    read_data = req.payload;
  }
  const auto sink =
      std::make_shared<ResponseSink>(*this, id, std::move(read_data));
  req.done = sink;

  // An accepted request answers from its continuation (possibly before
  // try_submit returns, which may then still flush the write it staged);
  // a refused one answers here. This thread only reads this link's
  // frames, so on an idle shard it dispatches the request itself rather
  // than wake a worker and wait.
  const bool accepted =
      service_.daemon(ion_).try_submit(std::move(req),
                                       SubmitMode::kInlineWhenIdle) ==
      SubmitResult::kAccepted;
  if (!accepted) sink->complete({CompletionStatus::kRejected, 0});
  MutexLock lk(mu_);
  if (accepted) {
    const auto it = dedup_.find(id);
    if (it != dedup_.end()) it->second.accepted = true;
  }
  if (--outstanding_ == 0) idle_cv_.notify_all();
}

void RpcIonServer::respond(
    std::uint64_t id, std::shared_ptr<const std::vector<std::byte>> frame) {
  {
    MutexLock lk(mu_);
    const auto it = dedup_.find(id);
    if (it != dedup_.end()) {
      it->second.response = frame;  // replayed to later duplicates
      terminal_order_.push_back(id);
      evict_locked();
    }
  }
  frames_sent_ctr_->add();
  transport_.send(rpc::kServerSide, *frame);
  MutexLock lk(mu_);
  if (--outstanding_ == 0) idle_cv_.notify_all();
}

void RpcIonServer::evict_locked() {
  while (terminal_order_.size() > kDedupWindow) {
    dedup_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

// --- RpcMappingClient ------------------------------------------------------

RpcMappingClient::RpcMappingClient(rpc::Transport& transport,
                                   const rpc::RpcOptions& options,
                                   telemetry::Registry* registry)
    : transport_(transport), options_(options),
      receiver_(transport,
                [this](std::vector<std::byte> f) { on_frame(std::move(f)); },
                reg_of(registry).counter("rpc.follower_waits",
                                         {{"link", "mapping"}})) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "mapping"}};
  retries_ctr_ = &reg.counter("rpc.retries", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
}

bool RpcMappingClient::round_trip(std::uint64_t id,
                                  std::span<const std::byte> frame,
                                  Waiter* waiter) {
  {
    MutexLock lk(mu_);
    waiters_[id] = waiter;
  }
  transport_.send(rpc::kClientSide, frame);
  frames_sent_ctr_->add();
  receiver_.wait(waiter->slot, monotonic_seconds() + options_.ack_timeout,
                 [&] {
                   MutexLock lk(mu_);
                   return waiter->done;
                 });
  // After this erase no reply can reach the waiter.
  MutexLock lk(mu_);
  waiters_.erase(id);
  return waiter->done;
}

std::optional<MappingSnapshot> RpcMappingClient::fetch(core::JobId job) {
  rpc::MappingGetMsg msg;
  msg.job = job;
  for (int attempt = 1; attempt <= kMappingAttempts; ++attempt) {
    // A fresh id per attempt: gets are idempotent reads, so re-execution
    // is free and a late reply to an abandoned id is simply ignored.
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    Waiter waiter;
    if (round_trip(id, rpc::encode(id, msg), &waiter)) {
      return waiter.snap;
    }
    retries_ctr_->add();
  }
  return std::nullopt;  // store unreachable: caller keeps its cache
}

bool RpcMappingClient::publish(const core::Mapping& mapping) {
  rpc::MappingPublishMsg msg;
  msg.text = mapping.to_string();
  // ONE id for every attempt: the server applies a publish id at most
  // once, so resends cannot double-consume mapping.publish fault
  // events (or re-publish an epoch the arbiter has since replaced).
  const std::uint64_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::byte> frame = rpc::encode(id, msg);
  for (int attempt = 1; attempt <= kMappingAttempts; ++attempt) {
    Waiter waiter;
    if (round_trip(id, frame, &waiter)) return true;
    retries_ctr_->add();
  }
  return false;  // lost publish: the HealthMonitor self-heals it
}

void RpcMappingClient::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  const rpc::Decoded decoded = rpc::decode(frame);
  if (!decoded.ok()) {
    codec_errors_ctr_->add();
    return;
  }
  MutexLock lk(mu_);
  const auto it = waiters_.find(decoded.request_id);
  if (it == waiters_.end()) return;  // reply to an abandoned attempt
  Waiter* waiter = it->second;
  if (const auto* reply = std::get_if<rpc::MappingReplyMsg>(&decoded.msg)) {
    waiter->snap.epoch = reply->epoch;
    waiter->snap.found = reply->found;
    waiter->snap.ions.assign(reply->ions.begin(), reply->ions.end());
  } else if (!std::holds_alternative<rpc::MappingPublishAckMsg>(
                 decoded.msg)) {
    return;  // unexpected type for this link
  }
  waiter->done = true;
  waiter->slot.complete({});  // under mu_: the waiter outlives the call
}

// --- RpcMappingServer ------------------------------------------------------

RpcMappingServer::RpcMappingServer(rpc::Transport& transport,
                                   MappingStore& store,
                                   telemetry::Registry* registry)
    : transport_(transport), store_(store) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "mapping"}};
  dedup_hits_ctr_ = &reg.counter("rpc.dedup_hits", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
  transport_.set_handler(rpc::kServerSide,
                         [this](std::vector<std::byte> frame) {
                           on_frame(std::move(frame));
                         });
}

void RpcMappingServer::evict_locked() {
  while (publish_order_.size() > kDedupWindow) {
    published_.erase(publish_order_.front());
    publish_order_.pop_front();
  }
}

void RpcMappingServer::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  const rpc::Decoded decoded = rpc::decode(frame);
  if (!decoded.ok()) {
    codec_errors_ctr_->add();
    return;
  }
  const std::uint64_t id = decoded.request_id;
  if (const auto* get = std::get_if<rpc::MappingGetMsg>(&decoded.msg)) {
    // Idempotent read: dups re-execute. One snapshot, like the direct
    // port, so the ION list and its epoch always belong together.
    const auto snap = store_.snapshot(get->job);
    rpc::MappingReplyMsg reply;
    reply.found = snap.found;
    reply.ions.assign(snap.ions.begin(), snap.ions.end());
    reply.epoch = snap.epoch;
    frames_sent_ctr_->add();
    transport_.send(rpc::kServerSide, rpc::encode(id, reply));
    return;
  }
  if (const auto* pub = std::get_if<rpc::MappingPublishMsg>(&decoded.msg)) {
    bool applied = false;
    {
      MutexLock lk(mu_);
      applied = published_.contains(id);
    }
    if (applied) {
      // Dup (chaos or resend): the publish was already applied -
      // replay the ack without touching the store, so fault events
      // on mapping.publish are consumed at most once per id.
      dedup_hits_ctr_->add();
    } else {
      if (const auto mapping = core::Mapping::parse(pub->text)) {
        store_.publish(*mapping);
      }
      // A text the parser refuses still gets an ack: the publish was
      // delivered and rejected, which is terminal, not retryable.
      MutexLock lk(mu_);
      published_.insert(id);
      publish_order_.push_back(id);
      evict_locked();
    }
    // The ack carries nothing but the id, so a replay re-encodes it.
    frames_sent_ctr_->add();
    transport_.send(rpc::kServerSide,
                    rpc::encode(id, rpc::MappingPublishAckMsg{}));
  }
}

}  // namespace iofa::fwd
