#pragma once
// Typed message frames for the forwarding RPC boundary.
//
// Every message crossing a transport link is one frame: a fixed
// little-endian header (magic, version, type, request id, body length,
// four-lane FNV-style checksum over header+body) followed by a
// type-specific body.
// The wire structs below carry only plain value types - no callbacks,
// no slab handles, no pointers - so a frame is meaningful on any side
// of any transport. Conversion to/from the runtime's FwdRequest
// envelope happens at the endpoints (src/fwd/rpc_endpoints), never in
// the codec.
//
// Versioning: kWireVersion is part of the header; a decoder refuses
// frames from a different version with a CodecError value, so
// mixed-version deployments fail loudly at the boundary instead of
// corrupting state.

#include <cstdint>
#include <string>
#include <vector>

namespace iofa::rpc {

inline constexpr std::uint32_t kWireMagic = 0x41464F49;  // "IOFA" LE
/// Version 5: a SubmitRequest no longer carries a stream weight (the
/// ION charges the PFS as one stream). Version 4 brought one answer
/// per request - a refusal is a SubmitResponse (kRejected) and
/// SubmitAck is an empty "held" reply to a resend. Version 3 sent an
/// eager ack carrying the admission result; its checksum (four lanes
/// over 32-byte blocks) is unchanged. Version 2 chained every word
/// serially, version 1 hashed byte-wise.
inline constexpr std::uint8_t kWireVersion = 5;
/// Fixed header size in bytes (see codec.cpp for the exact layout).
inline constexpr std::size_t kHeaderSize = 32;
/// Decoder refuses bodies above this (a flipped length bit must not
/// turn into a multi-gigabyte allocation).
inline constexpr std::size_t kMaxBodyLen = 64u << 20;

/// Every malformed frame - truncated, bit-flipped, wrong magic/version,
/// length mismatch, trailing bytes - is refused with this one typed
/// value (codec.hpp returns it; nothing throws). Decoders never crash,
/// hang, or partially apply a bad frame.
struct CodecError {
  std::string why;
};

enum class MsgType : std::uint8_t {
  kSubmitRequest = 1,   ///< client -> ION: one forwarded request
  kSubmitAck = 2,       ///< ION -> client: "held" (resend of an open id)
  kSubmitResponse = 3,  ///< ION -> client: the one answer (refusal too)
  kMappingGet = 4,      ///< client -> store: entry + epoch for a job
  kMappingReply = 5,    ///< store -> client: epoch, entry (if any)
  kMappingPublish = 6,  ///< arbiter -> store: serialized mapping
  kMappingPublishAck = 7
};

/// Wire mirror of fwd::FwdOp (kept as its own enum so the codec never
/// includes fwd headers; rpc_endpoints converts and a static_assert
/// there pins the values).
enum class WireOp : std::uint8_t { kWrite = 0, kRead = 1, kFsync = 2 };

struct SubmitRequestMsg {
  WireOp op = WireOp::kWrite;
  std::uint32_t tenant = 0;
  std::uint64_t file_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t deadline_us = 0;
  std::string path;
  /// Write payload bytes: empty (accounting-only) or exactly `size`
  /// bytes; reads and fsyncs carry none (decode() enforces both).
  std::vector<std::byte> payload;
};

/// The answer to a resend whose id the ION accepted but has not
/// settled: "held, the response follows". A fresh request gets no ack.
struct SubmitAckMsg {};

/// Terminal outcome classes a completion can carry back: the wire
/// mirror of fwd::CompletionStatus (pinned by static_assert in
/// rpc_endpoints.cpp), so client retry logic is transport-agnostic.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kIonDown = 1,
  kExpired = 2,
  kError = 3,
  kRejected = 4
};

struct SubmitResponseMsg {
  WireStatus status = WireStatus::kOk;
  /// Bytes transferred (kOk); the crashed/expiring ION id otherwise.
  std::uint64_t value = 0;
  /// Read data travelling back to the client; empty for writes,
  /// fsyncs, and accounting-only reads.
  std::vector<std::byte> data;
};

struct MappingGetMsg {
  std::uint64_t job = 0;
};

struct MappingReplyMsg {
  std::uint64_t epoch = 0;
  bool found = false;
  std::vector<std::int32_t> ions;
};

struct MappingPublishMsg {
  /// core::Mapping::to_string() text; the server pushes it through the
  /// production parser, so a torn publish is refused there exactly like
  /// a torn mapping file.
  std::string text;
};

struct MappingPublishAckMsg {};

}  // namespace iofa::rpc
