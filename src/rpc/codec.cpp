#include "rpc/codec.hpp"

#include <bit>
#include <cstring>
#include <optional>
#include <span>
#include <string>

namespace iofa::rpc {

namespace {

// --- primitive writers/readers -------------------------------------------
// Explicit little-endian byte packing: no struct punning, no host
// endianness assumptions. This file is the only sanctioned home of
// memcpy-on-frame-bytes in src/rpc (raw-wire rule).

/// Little-endian store of the low `n` bytes of `v`.
void store_le(std::byte* at, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

void put_le(std::vector<std::byte>& out, std::uint64_t v, std::size_t n) {
  out.resize(out.size() + n);
  store_le(out.data() + out.size() - n, v, n);
}

void put_bytes(std::vector<std::byte>& out, std::span<const std::byte> v) {
  put_le(out, v.size(), 4);
  out.insert(out.end(), v.begin(), v.end());
}

void put_string(std::vector<std::byte>& out, const std::string& v) {
  put_bytes(out, std::as_bytes(std::span<const char>(v)));
}

/// Bounds-checked sequential reader over a body span. Every read
/// validates remaining length first, so a malformed length field can
/// never walk past the buffer. The first malformation is kept as the
/// reader's error; every later read yields zeros / empty runs, so a
/// decoder parses straight through and checks failed() once at the end.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint64_t le(std::size_t n) {
    if (!need(n)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }
  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }

  /// A length-prefixed byte run, as a view into the frame.
  std::span<const std::byte> run() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    const std::span<const std::byte> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }
  std::vector<std::byte> bytes() {
    const auto r = run();
    return {r.begin(), r.end()};
  }
  std::string str() {
    const auto r = run();
    return {reinterpret_cast<const char*>(r.data()), r.size()};
  }

  /// Record a malformation (only the first one is kept).
  void fail(std::string why) {
    if (!error_) error_ = CodecError{std::move(why)};
  }
  bool failed() const { return error_.has_value(); }
  const CodecError& error() const { return *error_; }

  /// Decoders call this last: leftover bytes are a malformation, not
  /// forward compatibility (the version field owns evolution).
  void expect_done() {
    if (pos_ != size_) fail("trailing bytes in body");
  }

 private:
  bool need(std::size_t n) {
    if (!error_ && size_ - pos_ >= n) return true;
    fail("body truncated");
    return false;
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::optional<CodecError> error_;
};

std::uint64_t load_le64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// One checksum step: FNV-1a's xor-multiply on a whole 8-byte word,
/// then an xorshift. It is a bijection of the state for a fixed word
/// and of the word for a fixed state, so a changed word changes the
/// step's output and every later step carries that change through.
std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * kFnvPrime;
  return h ^ (h >> 32);
}

/// Frame checksum over header[0..24) ++ body. The header words chain
/// serially; the body's 32-byte blocks feed four independent lanes
/// (word j of a block goes to lane j), seeded from the header hash
/// with distinct constants, so four multiply chains run in parallel
/// instead of one. The lanes fold back in order with the same step,
/// then the word tail and a byte-wise tail follow. Every step is a
/// bijection of one input, so any single-word (hence single-byte)
/// change alters the result.
std::uint64_t checksum(const std::byte* header, const std::byte* body,
                       std::size_t n) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i + 8 <= kHeaderSize - 8; i += 8) {
    h = mix(h, load_le64(header + i));
  }
  std::uint64_t lane[4] = {h ^ 0x9E3779B97F4A7C15ULL,
                           h ^ 0xC2B2AE3D27D4EB4FULL,
                           h ^ 0x165667B19E3779F9ULL,
                           h ^ 0x27D4EB2F165667C5ULL};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = mix(lane[0], load_le64(body + i));
    lane[1] = mix(lane[1], load_le64(body + i + 8));
    lane[2] = mix(lane[2], load_le64(body + i + 16));
    lane[3] = mix(lane[3], load_le64(body + i + 24));
  }
  for (const std::uint64_t l : lane) h = mix(h, l);
  for (; i + 8 <= n; i += 8) h = mix(h, load_le64(body + i));
  for (; i < n; ++i) {
    h = (h ^ static_cast<std::uint64_t>(body[i])) * kFnvPrime;
  }
  return h;
}

/// A frame under construction: the body is appended behind the header.
std::vector<std::byte> open_frame(std::size_t body_bytes) {
  std::vector<std::byte> frame;
  frame.reserve(kHeaderSize + body_bytes);
  frame.resize(kHeaderSize);
  return frame;
}

/// Fill in the header of an open_frame() once its body is complete.
std::vector<std::byte> seal(MsgType type, std::uint64_t request_id,
                            std::vector<std::byte> frame) {
  std::byte* h = frame.data();
  store_le(h + 0, kWireMagic, 4);
  store_le(h + 4, kWireVersion, 1);
  store_le(h + 5, static_cast<std::uint8_t>(type), 1);
  store_le(h + 8, request_id, 8);  // reserved [6..8), [20..24) stay zero
  store_le(h + 16, frame.size() - kHeaderSize, 4);
  store_le(h + 24, checksum(h, h + kHeaderSize, frame.size() - kHeaderSize),
           8);
  return frame;
}

}  // namespace

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitRequestMsg& m,
                              std::span<const std::byte> payload) {
  std::vector<std::byte> frame =
      open_frame(56 + m.path.size() + payload.size());
  put_le(frame, static_cast<std::uint8_t>(m.op), 1);
  put_le(frame, m.tenant, 4);
  put_le(frame, m.file_id, 8);
  put_le(frame, m.offset, 8);
  put_le(frame, m.size, 8);
  put_le(frame, m.deadline_us, 8);
  put_string(frame, m.path);
  put_bytes(frame, payload);
  return seal(MsgType::kSubmitRequest, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitAckMsg&) {
  return seal(MsgType::kSubmitAck, request_id, open_frame(0));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitResponseMsg& m,
                              std::span<const std::byte> data) {
  std::vector<std::byte> frame = open_frame(13 + data.size());
  put_le(frame, static_cast<std::uint8_t>(m.status), 1);
  put_le(frame, m.value, 8);
  put_bytes(frame, data);
  return seal(MsgType::kSubmitResponse, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingGetMsg& m) {
  std::vector<std::byte> frame = open_frame(8);
  put_le(frame, m.job, 8);
  return seal(MsgType::kMappingGet, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingReplyMsg& m) {
  std::vector<std::byte> frame = open_frame(13 + 4 * m.ions.size());
  put_le(frame, m.epoch, 8);
  put_le(frame, m.found ? 1 : 0, 1);
  put_le(frame, static_cast<std::uint32_t>(m.ions.size()), 4);
  for (std::int32_t ion : m.ions) {
    put_le(frame, static_cast<std::uint32_t>(ion), 4);
  }
  return seal(MsgType::kMappingReply, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingPublishMsg& m) {
  std::vector<std::byte> frame = open_frame(4 + m.text.size());
  put_string(frame, m.text);
  return seal(MsgType::kMappingPublish, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingPublishAckMsg&) {
  return seal(MsgType::kMappingPublishAck, request_id, open_frame(0));
}

namespace {

/// Header checks shared by decode() and peek_type(): the type, with
/// request_id / body_len filled in, or why the header was refused.
std::variant<CodecError, MsgType> check_header(
    const std::vector<std::byte>& frame, std::uint64_t* request_id,
    std::size_t* body_len) {
  if (frame.size() < kHeaderSize) {
    return CodecError{"frame shorter than header"};
  }
  Reader h(frame.data(), kHeaderSize);
  if (h.u32() != kWireMagic) return CodecError{"bad magic"};
  const std::uint8_t version = h.u8();
  if (version != kWireVersion) {
    return CodecError{"unsupported wire version " + std::to_string(version)};
  }
  const std::uint8_t type = h.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kSubmitRequest) ||
      type > static_cast<std::uint8_t>(MsgType::kMappingPublishAck)) {
    return CodecError{"unknown message type " + std::to_string(type)};
  }
  if (h.le(2) != 0) return CodecError{"nonzero reserved field"};
  const std::uint64_t id = h.u64();
  const std::uint32_t len = h.u32();
  if (h.u32() != 0) return CodecError{"nonzero reserved field"};
  if (len > kMaxBodyLen) return CodecError{"body length over limit"};
  if (frame.size() != kHeaderSize + len) {
    return CodecError{"frame length does not match body length"};
  }
  const std::uint64_t want = h.u64();
  if (want != checksum(frame.data(), frame.data() + kHeaderSize, len)) {
    return CodecError{"checksum mismatch"};
  }
  if (request_id) *request_id = id;
  if (body_len) *body_len = len;
  return static_cast<MsgType>(type);
}

}  // namespace

std::variant<CodecError, MsgType> peek_type(
    const std::vector<std::byte>& frame) {
  return check_header(frame, nullptr, nullptr);
}

Decoded decode(const std::vector<std::byte>& frame) {
  Decoded out;
  std::size_t body_len = 0;
  auto type = check_header(frame, &out.request_id, &body_len);
  if (auto* err = std::get_if<CodecError>(&type)) {
    return Decoded{0, std::move(*err)};
  }
  Reader r(frame.data() + kHeaderSize, body_len);
  switch (std::get<MsgType>(type)) {
    case MsgType::kSubmitRequest: {
      SubmitRequestMsg m;
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(WireOp::kFsync)) {
        r.fail("bad op " + std::to_string(op));
      }
      m.op = static_cast<WireOp>(op);
      m.tenant = r.u32();
      m.file_id = r.u64();
      m.offset = r.u64();
      m.size = r.u64();
      m.deadline_us = r.u64();
      m.path = r.str();
      m.payload = r.bytes();
      r.expect_done();
      // The daemon sizes and copies buffers by `size`, so the payload
      // must agree: all of a write's bytes or none (accounting-only),
      // none for a read or fsync, and never more than a frame holds.
      if (m.size > kMaxBodyLen) r.fail("request size over limit");
      if (!m.payload.empty() &&
          (m.op != WireOp::kWrite || m.payload.size() != m.size)) {
        r.fail("payload does not match op and size");
      }
      out.msg = std::move(m);
      break;
    }
    case MsgType::kSubmitAck: {
      r.expect_done();
      out.msg = SubmitAckMsg{};
      break;
    }
    case MsgType::kSubmitResponse: {
      SubmitResponseMsg m;
      const std::uint8_t status = r.u8();
      if (status > static_cast<std::uint8_t>(WireStatus::kRejected)) {
        r.fail("bad status " + std::to_string(status));
      }
      m.status = static_cast<WireStatus>(status);
      m.value = r.u64();
      m.data = r.bytes();
      r.expect_done();
      out.msg = std::move(m);
      break;
    }
    case MsgType::kMappingGet: {
      MappingGetMsg m;
      m.job = r.u64();
      r.expect_done();
      out.msg = m;
      break;
    }
    case MsgType::kMappingReply: {
      MappingReplyMsg m;
      m.epoch = r.u64();
      const std::uint8_t found = r.u8();
      if (found > 1) r.fail("bad found flag");
      m.found = found == 1;
      const std::uint32_t n = r.u32();
      // Each ion costs 4 body bytes; an absurd count dies here instead
      // of in a giant reserve.
      if (n > kMaxBodyLen / 4) r.fail("ion list over limit");
      for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
        m.ions.push_back(static_cast<std::int32_t>(r.u32()));
      }
      r.expect_done();
      out.msg = std::move(m);
      break;
    }
    case MsgType::kMappingPublish: {
      MappingPublishMsg m;
      m.text = r.str();
      r.expect_done();
      out.msg = std::move(m);
      break;
    }
    case MsgType::kMappingPublishAck: {
      r.expect_done();
      out.msg = MappingPublishAckMsg{};
      break;
    }
  }
  if (r.failed()) return Decoded{0, r.error()};
  return out;
}

}  // namespace iofa::rpc
