#pragma once
// Emulated parallel file system backend (the Lustre/GPFS stand-in).
//
// The device is modelled, the concurrency is real: callers are actual
// threads (client shims in direct mode, ION daemons in forwarded mode)
// whose requests are admitted through a shared token bucket. Three
// effects produce the contention landscape the paper measures:
//
//   * aggregate ceiling  - a token bucket drains `size + op_overhead`
//     tokens per request, so the device saturates at its bandwidth and
//     small requests pay proportionally more;
//   * stream contention  - each in-flight request raises a weighted
//     "active streams" gauge; token cost is multiplied by
//     (1 + contention_coeff * (streams - 1)), so many concurrent
//     writers degrade efficiency super-linearly (the eta(n) term of the
//     analytic model, emerging here from real concurrency);
//   * shared-file locking - writes to one file serialise on a per-file
//     lock domain (GPFS/Lustre token management), so a shared file is a
//     bottleneck no matter how many clients push into it.
//
// Data can be physically stored (verification tests read it back) or
// accounted only (large benchmark volumes).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"
#include "fault/injector.hpp"
#include "gkfs/chunk_store.hpp"
#include "gkfs/metadata.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {

struct PfsParams {
  double write_bandwidth = 900.0e6;  ///< bytes/s aggregate
  double read_bandwidth = 1400.0e6;
  Bytes op_overhead = 256 * KiB;     ///< token surcharge per request
  double contention_coeff = 0.01;    ///< per extra weighted stream
  double shared_lock_overhead = 0.5; ///< extra cost factor under a file
                                     ///  lock held by >1 concurrent writer
  /// Keep bytes for read-back. The deployment's one accounting-only
  /// switch: false charges every byte but stores none, and the daemons
  /// and the RPC server read it from here.
  bool store_data = true;
  /// Metrics destination; nullptr means telemetry::Registry::global().
  telemetry::Registry* registry = nullptr;
  /// Fault-injection hook (sites pfs.write / pfs.read); may be null.
  fault::FaultInjector* injector = nullptr;
};

class EmulatedPfs {
 public:
  explicit EmulatedPfs(PfsParams params);

  /// Blocking positional write. `stream_weight` is the number of logical
  /// client processes this calling thread represents (threads are scaled
  /// down from the app's process count). Returns false when the dispatch
  /// fails (fault injection only - the emulated device itself never
  /// fails); callers owning durability retry with backoff.
  bool write(const std::string& path, std::uint64_t offset,
             std::uint64_t size, std::span<const std::byte> data,
             double stream_weight = 1.0);

  /// One extent of a scatter-gather write (write_gather). `data` may be
  /// empty in accounting-only mode.
  struct GatherExtent {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::span<const std::byte> data;
  };

  /// Scatter-gather positional write: several extents of one file
  /// dispatched as ONE device operation — a single file-lock
  /// acquisition and a single op_overhead token surcharge for the whole
  /// batch (the coalescing win). Fault decisions stay per-extent so
  /// seeded replay consumes the pfs.write site stream exactly as the
  /// same extents written one by one would; extents are applied in
  /// order and the call stops at the first injected failure. Returns
  /// the number of extents durably applied (== extents.size() on full
  /// success); callers owning durability retry the remaining suffix. A
  /// `charged` write was paid by try_charge_write() and takes no tokens
  /// here.
  std::size_t write_gather(const std::string& path,
                           std::span<const GatherExtent> extents,
                           double stream_weight = 1.0, bool charged = false);

  /// Non-blocking write charge, the counterpart of try_charge_read: takes
  /// what write_gather() would charge one stream for `size` bytes of
  /// `path` only when the write bucket covers it now and no other writer
  /// holds or waits for the file's lock (whose surcharge, and wait, the
  /// caller could not pay), and reports whether it did. Draws no fault
  /// decision; pass `charged` to write_gather() when it returned true.
  bool try_charge_write(const std::string& path, std::uint64_t size);

  /// Non-blocking read charge for a caller that must not wait: takes
  /// the charge of one stream only when the read bucket covers all of
  /// it now, and reports whether it did. Draws no fault decision; pass
  /// `charged` to read() when it returned true.
  bool try_charge_read(std::uint64_t size);

  /// Blocking positional read; returns bytes read (clamped at EOF when
  /// data is stored; `size` otherwise). A `charged` read was paid by
  /// try_charge_read() and takes no tokens here.
  std::size_t read(const std::string& path, std::uint64_t offset,
                   std::uint64_t size, std::span<std::byte> out,
                   double stream_weight = 1.0, bool charged = false);

  bool create(const std::string& path);
  std::optional<gkfs::Metadata> stat(const std::string& path) const;
  bool remove(const std::string& path);

  // --- stats -----------------------------------------------------------
  Bytes bytes_written() const { return bytes_written_.load(); }
  Bytes bytes_read() const { return bytes_read_.load(); }
  std::uint64_t write_ops() const { return write_ops_.load(); }
  std::uint64_t read_ops() const { return read_ops_.load(); }
  double active_streams() const;
  double read_burst() const { return read_bucket_.burst(); }  ///< in bytes

  const PfsParams& params() const { return params_; }

 private:
  /// Per-file lock domain: serialises writers and counts holders. The
  /// mutex is the capability over the emulated file's on-device state,
  /// not over a field of this struct.
  struct FileLock {
    Mutex mu;  // iofa-lint: allow(naked-mutex) — guards the file, not a field
    std::atomic<int> waiters{0};
  };
  std::shared_ptr<FileLock> lock_for(const std::string& path)
      IOFA_EXCLUDES(locks_mu_);

  /// Take `(size + op_overhead) x contention x extra_factor` tokens.
  /// Without `wait` it takes them only if the bucket holds them now and
  /// reports whether it did.
  bool charge(std::uint64_t size, double stream_weight, bool is_read,
              double extra_factor, bool wait = true);

  PfsParams params_;
  // The PFS's own bandwidth model, not a per-tenant limiter: tenancy
  // ends at the ION; the backing store is shared capacity by design.
  TokenBucket write_bucket_;  // iofa-lint: allow(raw-token-bucket)
  TokenBucket read_bucket_;   // iofa-lint: allow(raw-token-bucket)

  mutable Mutex locks_mu_;
  std::unordered_map<std::string, std::shared_ptr<FileLock>> locks_
      IOFA_GUARDED_BY(locks_mu_);

  gkfs::MetadataStore metadata_;
  gkfs::ChunkStore store_;

  std::atomic<double> weighted_streams_{0.0};
  std::atomic<Bytes> bytes_written_{0};
  std::atomic<Bytes> bytes_read_{0};
  std::atomic<std::uint64_t> write_ops_{0};
  std::atomic<std::uint64_t> read_ops_{0};

  // Telemetry ("fwd.pfs.*", process-cumulative across instances).
  telemetry::Counter* ctr_bytes_written_ = nullptr;
  telemetry::Counter* ctr_bytes_read_ = nullptr;
  telemetry::Counter* ctr_write_ops_ = nullptr;
  telemetry::Counter* ctr_read_ops_ = nullptr;
  telemetry::Counter* ctr_lock_contention_ = nullptr;
  telemetry::Gauge* gauge_streams_ = nullptr;
  telemetry::Histogram* hist_request_bytes_ = nullptr;
};

}  // namespace iofa::fwd
