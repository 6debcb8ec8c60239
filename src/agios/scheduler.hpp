#pragma once
// AGIOS-like request scheduling library for the forwarding layer.
//
// GekkoFWD feeds every request an ION receives to the scheduler, which
// decides when it is processed and whether neighbouring requests are
// aggregated into one larger access (the paper integrates AGIOS at the
// ION for exactly this purpose). Schedulers are pure policy objects:
// not thread-safe by themselves, driven under the daemon's dispatch lock.
//
// Provided schedulers:
//   FIFO        - arrival order (the IOFSL baseline);
//   SJF         - smallest request first, with aging to avoid starvation;
//   TO-AGG      - time-window aggregation: waits briefly for contiguous
//                 neighbours and merges them into a single access;
//   TWINS       - server-oriented time windows: serves only requests
//                 targeting one PFS server per window (Bez et al., PDP'17);
//   HBRR        - quantum-based round-robin across per-file queues
//                 (Ohta et al.'s handle-based reordering);
//   aIOLi       - offset-ordered per-file service with an adaptive
//                 quantum that grows for sequential streams (Lebre et
//                 al., the algorithm AGIOS inherits);
//   MLF         - multilevel feedback: files sink to lower-priority
//                 levels with doubled quanta as they consume service.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace iofa::agios {

enum class ReqOp : std::uint8_t { Write, Read };

/// One request as seen by the scheduler. `tag` is opaque to AGIOS; the
/// daemon uses it to find the completion handle after dispatch.
struct SchedRequest {
  std::uint64_t tag = 0;
  std::uint64_t file_id = 0;
  ReqOp op = ReqOp::Write;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  Seconds arrival = 0.0;
  /// QoS tenant id; opaque to the base schedulers, consulted by the
  /// tenant-weighted decorator (qos/scheduler.hpp) to route requests
  /// to their priority class. 0 = default tenant.
  std::uint32_t tenant = 0;
};

/// A dispatchable access: one or more client requests, possibly merged
/// into a single contiguous [offset, offset+size) range of one file.
struct Dispatch {
  std::uint64_t file_id = 0;
  ReqOp op = ReqOp::Write;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::vector<SchedRequest> parts;

  bool aggregated() const { return parts.size() > 1; }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Hand a request to the scheduler.
  virtual void add(SchedRequest req) = 0;

  /// Next access to dispatch at time `now`, or nullopt if nothing is
  /// ready (either empty, or the policy is holding requests back - see
  /// next_ready_time()).
  virtual std::optional<Dispatch> pop(Seconds now) = 0;

  /// Earliest time pop() may return something, when requests are being
  /// held (aggregation windows, TWINS windows). nullopt when pop() would
  /// serve immediately or the queue is empty.
  virtual std::optional<Seconds> next_ready_time(Seconds now) const {
    (void)now;
    return std::nullopt;
  }

  virtual std::size_t queued() const = 0;
  bool empty() const { return queued() == 0; }
};

enum class SchedulerKind {
  Fifo, Sjf, TimeWindowAggregation, Twins, Hbrr, Aioli, Mlf
};

std::string to_string(SchedulerKind kind);

/// The scheduler an ION runs. Only TO-AGG's window is a setting; every
/// other policy's parameters are constants in make_scheduler().
struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::TimeWindowAggregation;
  /// TO-AGG: how long a request may wait for mergeable neighbours.
  Seconds aggregation_window = 0.001;
};

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& config);

}  // namespace iofa::agios
