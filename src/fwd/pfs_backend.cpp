#include "fwd/pfs_backend.hpp"

#include <algorithm>
#include <cassert>

#include "common/clock.hpp"
#include "gkfs/chunk.hpp"

namespace iofa::fwd {

EmulatedPfs::EmulatedPfs(PfsParams params)
    : params_(params),
      write_bucket_(params.write_bandwidth,
                    std::max(params.write_bandwidth * 0.02,
                             static_cast<double>(8 * MiB))),
      read_bucket_(params.read_bandwidth,
                   std::max(params.read_bandwidth * 0.02,
                            static_cast<double>(8 * MiB))) {
  auto& reg = params_.registry ? *params_.registry
                               : telemetry::Registry::global();
  ctr_bytes_written_ = &reg.counter("fwd.pfs.bytes_written");
  ctr_bytes_read_ = &reg.counter("fwd.pfs.bytes_read");
  ctr_write_ops_ = &reg.counter("fwd.pfs.write_ops");
  ctr_read_ops_ = &reg.counter("fwd.pfs.read_ops");
  ctr_lock_contention_ = &reg.counter("fwd.pfs.lock_contention");
  gauge_streams_ = &reg.gauge("fwd.pfs.active_streams");
  hist_request_bytes_ = &reg.histogram("fwd.pfs.request_bytes",
                                       telemetry::BucketSpec::bytes());
}

std::shared_ptr<EmulatedPfs::FileLock> EmulatedPfs::lock_for(
    const std::string& path) {
  MutexLock lk(locks_mu_);
  auto& slot = locks_[path];
  if (!slot) slot = std::make_shared<FileLock>();
  return slot;
}

bool EmulatedPfs::charge(std::uint64_t size, double stream_weight,
                         bool is_read, double extra_factor, bool wait) {
  const double streams =
      weighted_streams_.fetch_add(stream_weight) + stream_weight;
  gauge_streams_->set(streams);
  const double contention =
      1.0 + params_.contention_coeff * std::max(0.0, streams - 1.0);
  const double tokens =
      (static_cast<double>(size) +
       static_cast<double>(params_.op_overhead)) *
      contention * extra_factor;
  TokenBucket& bucket = is_read ? read_bucket_ : write_bucket_;
  bool paid = true;
  if (wait) {
    bucket.acquire(tokens);
  } else {
    // try_acquire throws on a charge past the burst, which no wait
    // could cover at once; the caller pays such a charge blocking.
    paid = tokens <= bucket.burst() && bucket.try_acquire(tokens);
  }
  weighted_streams_.fetch_sub(stream_weight);
  if (paid) hist_request_bytes_->observe(static_cast<double>(size));
  return paid;
}

bool EmulatedPfs::write(const std::string& path, std::uint64_t offset,
                        std::uint64_t size, std::span<const std::byte> data,
                        double stream_weight) {
  const GatherExtent extent{offset, size, data};
  return write_gather(path, {&extent, 1}, stream_weight) == 1;
}

std::size_t EmulatedPfs::write_gather(const std::string& path,
                                      std::span<const GatherExtent> extents,
                                      double stream_weight, bool charged) {
  if (extents.empty()) return 0;
  // Per-extent fault decisions, taken before any charge — exactly the
  // stream consumption N individual write() calls would produce, so
  // seeded replay is independent of how a flusher happened to batch.
  std::size_t admitted = extents.size();
  if (params_.injector) {
    for (std::size_t i = 0; i < extents.size(); ++i) {
      const auto d = params_.injector->decide(fault::kPfsWriteSite);
      if (d.stall > 0.0) sleep_for_seconds(d.stall);
      if (d.fail) {
        admitted = i;
        break;
      }
    }
  }
  if (admitted == 0) return 0;
  Bytes total = 0;
  for (std::size_t i = 0; i < admitted; ++i) total += extents[i].size;
  std::uint64_t max_end = 0;
  auto lock = lock_for(path);
  lock->waiters.fetch_add(1);
  {
    MutexLock file_lk(lock->mu);
    const int queued = lock->waiters.load();
    const double extra =
        queued > 1 ? 1.0 + params_.shared_lock_overhead : 1.0;
    if (queued > 1) ctr_lock_contention_->add();
    // ONE op_overhead surcharge for the whole gather: amortising the
    // per-operation cost is the point of coalescing (the same recovery
    // aggregation gives small forwarded requests).
    if (!charged) charge(total, stream_weight, /*is_read=*/false, extra);
    const std::uint64_t id = gkfs::hash_path(path);
    for (std::size_t i = 0; i < admitted; ++i) {
      const auto& e = extents[i];
      max_end = std::max(max_end, e.offset + e.size);
      if (params_.store_data && !e.data.empty()) {
        assert(e.data.size() >= e.size);
        for (const auto& slice : gkfs::split_range(e.offset, e.size)) {
          store_.write(
              id, slice.chunk, slice.offset_in_chunk,
              e.data.subspan(slice.file_offset - e.offset, slice.size));
        }
      }
    }
    metadata_.extend(path, max_end);
  }
  lock->waiters.fetch_sub(1);
  bytes_written_.fetch_add(total);
  write_ops_.fetch_add(1);
  ctr_bytes_written_->add(total);
  ctr_write_ops_->add();
  return admitted;
}

bool EmulatedPfs::try_charge_write(const std::string& path,
                                   std::uint64_t size) {
  return lock_for(path)->waiters.load() == 0 &&
         charge(size, /*stream_weight=*/1.0, /*is_read=*/false, 1.0,
                /*wait=*/false);
}

bool EmulatedPfs::try_charge_read(std::uint64_t size) {
  return charge(size, /*stream_weight=*/1.0, /*is_read=*/true, 1.0,
                /*wait=*/false);
}

std::size_t EmulatedPfs::read(const std::string& path, std::uint64_t offset,
                              std::uint64_t size, std::span<std::byte> out,
                              double stream_weight, bool charged) {
  // Reads are stall-only (latency spikes); see FaultPlan::validate.
  if (params_.injector) {
    const auto d = params_.injector->decide(fault::kPfsReadSite);
    if (d.stall > 0.0) sleep_for_seconds(d.stall);
  }
  if (!charged) charge(size, stream_weight, /*is_read=*/true, 1.0);
  bytes_read_.fetch_add(size);
  read_ops_.fetch_add(1);
  ctr_bytes_read_->add(size);
  ctr_read_ops_->add();

  const auto md = metadata_.stat(path);
  if (!md) return params_.store_data ? 0 : size;
  const std::uint64_t readable =
      offset >= md->size
          ? 0
          : std::min<std::uint64_t>(size, md->size - offset);
  if (!params_.store_data || out.empty()) return readable;
  const std::uint64_t id = gkfs::hash_path(path);
  const std::uint64_t n = std::min<std::uint64_t>(readable, out.size());
  for (const auto& slice : gkfs::split_range(offset, n)) {
    store_.read(id, slice.chunk, slice.offset_in_chunk,
                out.subspan(slice.file_offset - offset, slice.size));
  }
  return n;
}

bool EmulatedPfs::create(const std::string& path) {
  return metadata_.create(path);
}

std::optional<gkfs::Metadata> EmulatedPfs::stat(
    const std::string& path) const {
  return metadata_.stat(path);
}

bool EmulatedPfs::remove(const std::string& path) {
  if (!metadata_.remove(path)) return false;
  store_.remove_file(gkfs::hash_path(path));
  return true;
}

double EmulatedPfs::active_streams() const {
  return weighted_streams_.load();
}

}  // namespace iofa::fwd
