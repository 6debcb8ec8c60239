#pragma once
// Message-layer fault injection: a Transport decorator that consults
// the FaultInjector once per frame SENT, before any transport
// concurrency, so the k-th frame on a link sees the same decision in
// every run regardless of which transport carries it.
//
// Verb semantics (site kinds rpc.<link>.drop/dup/reorder/truncate/
// delay):
//
//   drop     - the frame never reaches the wire (wins over the rest);
//   dup      - the frame is sent twice back-to-back: the receiver's
//              dedup window must absorb the copy;
//   truncate - the frame is cut to a half-length prefix: the codec
//              must answer with a typed CodecError, counted by the
//              receiving endpoint (rpc.codec_errors);
//   reorder  - the frame is held in a one-slot buffer and swapped with
//              the NEXT frame on the same direction (deterministic -
//              no timers involved); held frames flush on close;
//   delay    - the sending thread sleeps for the event's duration
//              before the frame enters the wire, modelling link
//              latency with FIFO preserved.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "fault/injector.hpp"
#include "rpc/transport.hpp"

namespace iofa::rpc {

class ChaosTransport : public Transport {
 public:
  /// Wraps `inner`. `sites[kClientSide]` is the fault site checked for
  /// frames sent FROM the client side (the ".req" direction),
  /// `sites[kServerSide]` for frames sent from the server (".rsp").
  /// `injector` may be null (pure pass-through) and must otherwise
  /// outlive the decorator.
  ChaosTransport(std::unique_ptr<Transport> inner,
                 fault::FaultInjector* injector, std::string req_site,
                 std::string rsp_site);
  ~ChaosTransport() override;

  void set_handler(int side, Handler handler) override;
  bool set_caller_driven_handler(int side, Handler handler) override;
  Received receive(int side, Seconds deadline) override;
  void send(int side, std::span<const std::byte> frame) override;
  void close() override;

 private:
  std::unique_ptr<Transport> inner_;
  fault::FaultInjector* injector_;
  std::string sites_[2];
  Mutex mu_;
  /// One held frame per direction (reorder's swap slot).
  std::vector<std::byte> held_[2] IOFA_GUARDED_BY(mu_);
  bool holding_[2] IOFA_GUARDED_BY(mu_) = {false, false};
  bool closed_ IOFA_GUARDED_BY(mu_) = false;
};

}  // namespace iofa::rpc
