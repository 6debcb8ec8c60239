#pragma once
// Transport selection and RPC protocol knobs.
//
// The same fault/test/bench suites run unchanged over any transport:
// kAuto (the default everywhere) resolves from the IOFA_TRANSPORT
// environment variable, so CI's transport-matrix job just exports
// IOFA_TRANSPORT=tcp and re-runs the suites. Code that must pin a
// transport (the message-chaos drills) sets the enum explicitly.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/units.hpp"
#include "fault/backoff.hpp"

namespace iofa::rpc {

enum class TransportKind {
  /// Resolve from IOFA_TRANSPORT ("inproc" when unset).
  kAuto,
  /// Direct function calls (today's behaviour, zero overhead). No
  /// frames exist on this path, so rpc.* fault sites are never checked.
  kInProc,
  /// A real loopback TCP socket pair with length-prefixed frames.
  kTcp
};

const char* to_string(TransportKind kind);

/// Parse "inproc" / "tcp" (what IOFA_TRANSPORT and the tools'
/// --transport flag accept); nullopt for anything else.
std::optional<TransportKind> parse_transport(const std::string& name);

/// Resolve kAuto against the environment. Throws std::invalid_argument
/// when IOFA_TRANSPORT holds an unknown value - a typo in a CI matrix
/// must fail the job, not silently run in-proc.
TransportKind resolve_transport(TransportKind configured);

struct RpcOptions {
  /// How long a waiting client stub goes without the response before
  /// resending the same request id. Resends are at-least-once: the
  /// server's dedup window answers a duplicate from cache (the settled
  /// response, or an empty "held" ack while the daemon still has it),
  /// so a resend can never double-apply, and a lost response costs one
  /// resend. Past the request timeout the stub gives up only once some
  /// answer arrived, so the accounting identity sees exactly one
  /// authoritative outcome per offer.
  Seconds ack_timeout = 0.25;
  /// Pacing between resends (deterministic seeded jitter).
  fault::BackoffPolicy retry_backoff = {};
};

/// Reject nonsensical RPC knobs with std::invalid_argument (same
/// contract as the overload/QoS knobs; validate_live_options calls it).
void validate_rpc_options(const RpcOptions& options);

}  // namespace iofa::rpc
