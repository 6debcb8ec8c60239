#pragma once
// The ONE place frame bytes are produced and consumed. Everything else
// in src/rpc moves opaque frames around (owned as std::vector<std::byte>,
// borrowed as std::span<const std::byte> on send); the
// iofa_lint raw-wire rule fails the build when memcpy or
// reinterpret_cast touches frame bytes anywhere in src/rpc outside
// this codec.
//
// Layout (all little-endian, fixed offsets - see kHeaderSize):
//
//   [ 0..4)   u32  magic      "IOFA"
//   [ 4..5)   u8   version    kWireVersion
//   [ 5..6)   u8   type       MsgType
//   [ 6..8)   u16  reserved   must be 0
//   [ 8..16)  u64  request id
//   [16..20)  u32  body length
//   [20..24)  u32  reserved   must be 0
//   [24..32)  u64  checksum over bytes [0..24) ++ body (the body in
//                  four interleaved lanes of 32-byte blocks)
//   [32.. )   body
//
// The checksum covers the header (hash field excluded) AND the body, so
// any single-word change anywhere - request id included - is detected.
// decode() answers any malformation with a CodecError value and never
// reads past the buffer.

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "rpc/frame.hpp"

namespace iofa::rpc {

/// decode()'s answer, a typed value either way: the request id from
/// the header plus the typed body - or, as the body's first
/// alternative, the CodecError that refused the frame (request_id is
/// then 0). Errors are values; nothing in the codec throws.
struct Decoded {
  std::uint64_t request_id = 0;
  std::variant<CodecError, SubmitRequestMsg, SubmitAckMsg,
               SubmitResponseMsg, MappingGetMsg, MappingReplyMsg,
               MappingPublishMsg, MappingPublishAckMsg>
      msg;
  bool ok() const { return msg.index() != 0; }
};

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitAckMsg& m);
/// The payload / read data is serialised straight from `bytes` (a slab
/// span, no staging copy); m.payload / m.data are then ignored.
std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitRequestMsg& m,
                              std::span<const std::byte> bytes);
std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitResponseMsg& m,
                              std::span<const std::byte> bytes);
inline std::vector<std::byte> encode(std::uint64_t request_id,
                                     const SubmitRequestMsg& m) {
  return encode(request_id, m, m.payload);
}
inline std::vector<std::byte> encode(std::uint64_t request_id,
                                     const SubmitResponseMsg& m) {
  return encode(request_id, m, m.data);
}
std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingGetMsg& m);
std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingReplyMsg& m);
std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingPublishMsg& m);
std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingPublishAckMsg& m);

/// Parse one frame. ANY malformation is a CodecError; a decoded
/// message is fully validated (checksum included, and a SubmitRequest's
/// payload agrees with its op and size).
Decoded decode(const std::vector<std::byte>& frame);

/// The message type of a well-formed frame (header checks only; used
/// for cheap routing and by tests), or the CodecError of a malformed
/// header.
std::variant<CodecError, MsgType> peek_type(
    const std::vector<std::byte>& frame);

}  // namespace iofa::rpc
