#include "rpc/options.hpp"

#include <cstdlib>
#include <stdexcept>

namespace iofa::rpc {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kAuto: return "auto";
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kTcp: return "tcp";
  }
  return "?";
}

std::optional<TransportKind> parse_transport(const std::string& name) {
  if (name == "inproc") return TransportKind::kInProc;
  if (name == "tcp") return TransportKind::kTcp;
  return std::nullopt;
}

TransportKind resolve_transport(TransportKind configured) {
  if (configured != TransportKind::kAuto) return configured;
  const char* env = std::getenv("IOFA_TRANSPORT");
  if (!env || *env == '\0') return TransportKind::kInProc;
  const auto parsed = parse_transport(env);
  if (!parsed) {
    throw std::invalid_argument(
        std::string("IOFA_TRANSPORT: unknown transport '") + env +
        "' (want inproc or tcp)");
  }
  return *parsed;
}

void validate_rpc_options(const RpcOptions& options) {
  auto reject = [](const std::string& why) {
    throw std::invalid_argument("rpc options: " + why);
  };
  if (!(options.ack_timeout > 0.0)) reject("ack_timeout must be > 0");
  const auto& b = options.retry_backoff;
  if (!(b.base > 0.0) || !(b.cap >= b.base) || !(b.multiplier > 0.0) ||
      !(b.jitter >= 0.0 && b.jitter <= 1.0)) {
    // Aggregate-assigned policies bypass the BackoffPolicy ctor checks;
    // re-validate here so a degenerate resend schedule (busy-spin or
    // negative delays) cannot reach a stub.
    reject("retry_backoff wants base > 0, cap >= base, multiplier > 0, "
           "jitter in [0, 1]");
  }
}

}  // namespace iofa::rpc
