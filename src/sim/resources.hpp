#pragma once
// Modelled resources for the discrete-event substrate.
//
// SharedBandwidth - a processor-sharing device: all active flows split the
//                   capacity equally, with a pluggable efficiency factor
//                   eta(n) so contention can degrade the *aggregate* rate
//                   as the number of concurrent flows grows. Models a PFS
//                   data-server group or a network link.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace iofa::sim {

using FlowId = std::uint64_t;

class SharedBandwidth {
 public:
  /// capacity: aggregate bytes/second with a single flow.
  /// efficiency: eta(n) in (0, 1], multiplies the aggregate capacity when
  /// n flows are active. Defaults to perfect sharing (eta == 1).
  SharedBandwidth(Simulator& sim, double capacity_bytes_per_sec,
                  std::function<double(std::size_t)> efficiency = nullptr);

  /// Begin a flow of `bytes`; `done` runs at its completion time.
  FlowId start_flow(Bytes bytes, EventFn done);

  /// Abort a flow (its callback never runs). Returns bytes still pending,
  /// or nullopt if the flow already completed.
  std::optional<Bytes> abort_flow(FlowId id);

  std::size_t active_flows() const { return flows_.size(); }
  Bytes bytes_transferred() const { return bytes_done_; }

 private:
  struct Flow {
    double remaining;  ///< bytes
    EventFn done;
  };

  void advance_to_now();
  void reschedule();
  double per_flow_rate() const;

  Simulator& sim_;
  double capacity_;
  std::function<double(std::size_t)> efficiency_;
  std::map<FlowId, Flow> flows_;
  FlowId next_flow_ = 1;
  Seconds last_update_ = 0.0;
  EventId pending_event_ = 0;
  Bytes bytes_done_ = 0;
};

}  // namespace iofa::sim
