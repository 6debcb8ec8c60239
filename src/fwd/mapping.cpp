#include "fwd/mapping.hpp"
#include "common/clock.hpp"

#include <optional>

#include "telemetry/trace.hpp"

namespace iofa::fwd {

MappingStore::MappingStore(telemetry::Registry* registry) {
  auto& reg = registry ? *registry : telemetry::Registry::global();
  entries_written_ = &reg.counter("fwd.mapping.entries_written");
  delta_publishes_ = &reg.counter("fwd.mapping.delta_publishes");
}

void MappingStore::publish(const core::Mapping& mapping) {
  std::optional<core::Mapping> reparsed;
  if (injector_) {
    if (injector_->should_drop_mapping()) return;
    if (injector_->should_corrupt_mapping()) {
      // Mangle the real serialized form and push it through the real
      // parser, so the reject path is the production one.
      std::string text = mapping.to_string();
      const auto pos = text.find("job ");
      if (pos != std::string::npos) text.replace(pos, 4, "j0b ");
      reparsed = core::Mapping::parse(text);
      if (!reparsed) return;  // torn file refused; previous epoch stands
    }
  }
  const core::Mapping& next = reparsed ? *reparsed : mapping;
  // Entries of jobs that left; destroyed with this map, after the lock,
  // so readers never wait on their destruction. Extracted nodes move
  // in without an allocation.
  decltype(core::Mapping::jobs) retired;
  std::uint64_t written = 0;
  {
    MutexLock lk(mu_);
    auto& jobs = mapping_.jobs;
    const auto& log = next.changes;
    // Holding this publisher's epoch - 1, only the listed ids can differ;
    // otherwise a lockstep pass over both (JobId-ordered) maps lists them.
    const bool delta = log.publisher != 0 && log.publisher == publisher_ &&
                       mapping_.epoch + 1 == next.epoch;
    if (delta) delta_publishes_->add();
    std::vector<core::JobId> differ;
    if (!delta) {
      auto it = jobs.begin();
      for (const auto& [id, entry] : next.jobs) {
        while (it != jobs.end() && it->first < id) {
          differ.push_back((it++)->first);
        }
        const bool held = it != jobs.end() && it->first == id;
        if (!held || !(it->second == entry)) differ.push_back(id);
        if (held) ++it;
      }
      for (; it != jobs.end(); ++it) differ.push_back(it->first);
    }
    for (const core::JobId id : delta ? log.ids : differ) {
      const auto want = next.jobs.find(id);
      const auto it = jobs.lower_bound(id);
      const bool held = it != jobs.end() && it->first == id;
      if (want == next.jobs.end()) {
        if (!held) continue;
        retired.insert(retired.end(), jobs.extract(it));
      } else if (!held) {
        jobs.emplace_hint(it, id, want->second);
      } else if (!(it->second == want->second)) {
        // Copy-assignment reuses the label's and the list's capacity.
        it->second = want->second;
      } else {
        continue;
      }
      ++written;
    }
    publisher_ = log.publisher;
    mapping_.pool = next.pool;
    mapping_.epoch = next.epoch;
    epoch_.store(mapping_.epoch, std::memory_order_release);
  }
  if (written) entries_written_->add(written);
}

core::Mapping MappingStore::get() const {
  MutexLock lk(mu_);
  return mapping_;
}

std::uint64_t MappingStore::epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

MappingSnapshot MappingStore::snapshot(core::JobId job) const {
  MappingSnapshot snap;
  MutexLock lk(mu_);
  snap.epoch = mapping_.epoch;
  const auto it = mapping_.jobs.find(job);
  if (it != mapping_.jobs.end()) {
    snap.found = true;
    snap.ions = it->second.ions;
  }
  return snap;
}

ClientMappingView::ClientMappingView(MappingPort& port, core::JobId job,
                                     Seconds poll_period,
                                     telemetry::Registry* registry)
    : port_(&port),
      job_(job),
      poll_period_(poll_period),
      last_poll_(iofa::monotonic_now() - std::chrono::hours(1)) {
  auto& reg = registry ? *registry : telemetry::Registry::global();
  const telemetry::Labels labels{{"job", std::to_string(job_)}};
  poll_counter_ = &reg.counter("fwd.client.polls", labels);
  remap_counter_ = &reg.counter("fwd.client.remaps", labels);
}

void ClientMappingView::poll_locked() {
  ++polls_;
  poll_counter_->add();
  const auto snap = port_->fetch(job_);
  if (!snap) return;  // store unreachable: keep the cached view as-is
  if (snap->found) {
    cached_ = snap->ions;
  } else {
    cached_.clear();
  }
  if (snap->epoch != observed_epoch_) {
    ++remaps_;
    remap_counter_->add();
    telemetry::Tracer::global().instant(
        "remap", "fwd.client", "epoch",
        static_cast<std::int64_t>(snap->epoch));
  }
  observed_epoch_ = snap->epoch;
}

std::vector<int> ClientMappingView::ions() {
  MutexLock lk(mu_);
  const auto now = iofa::monotonic_now();
  const double since =
      std::chrono::duration<double>(now - last_poll_).count();
  if (since >= poll_period_) {
    last_poll_ = now;
    poll_locked();
  }
  return cached_;
}

void ClientMappingView::refresh_now() {
  MutexLock lk(mu_);
  last_poll_ = iofa::monotonic_now();
  poll_locked();
}

std::uint64_t ClientMappingView::observed_epoch() const {
  MutexLock lk(mu_);
  return observed_epoch_;
}

std::uint64_t ClientMappingView::polls() const {
  MutexLock lk(mu_);
  return polls_;
}

std::uint64_t ClientMappingView::remaps() const {
  MutexLock lk(mu_);
  return remaps_;
}

}  // namespace iofa::fwd
