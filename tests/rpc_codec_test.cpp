// Codec robustness: every message type round-trips bit-exactly, and
// EVERY malformed frame - truncated at any length, bit-flipped
// anywhere, wrong magic/version/type/reserved, a request whose payload
// disagrees with its op and size - is refused with the one typed
// CodecError value. The fuzz loops run under fixed seeds (1/7/1337) so
// a failure reproduces from the printed seed; the property they enforce
// is the codec's whole contract: never crash, never hang, never throw,
// never partially apply a bad frame.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "rpc/codec.hpp"
#include "rpc/frame.hpp"

namespace iofa::rpc {
namespace {

/// True when decode() refuses `frame` with a CodecError value (a reason,
/// and no request id or body of the frame leaking through).
bool refused(const std::vector<std::byte>& frame) {
  const Decoded d = decode(frame);
  const auto* error = std::get_if<CodecError>(&d.msg);
  return !d.ok() && error != nullptr && !error->why.empty() &&
         d.request_id == 0;
}

/// The reason decode() gave for refusing `frame` ("" when it decoded).
std::string refusal(const std::vector<std::byte>& frame) {
  const Decoded d = decode(frame);
  const auto* error = std::get_if<CodecError>(&d.msg);
  return error ? error->why : "";
}

SubmitRequestMsg sample_request() {
  SubmitRequestMsg m;
  m.op = WireOp::kWrite;
  m.tenant = 3;
  m.file_id = 0xDEADBEEFCAFEF00Dull;
  m.offset = 4096;
  m.size = 5;
  m.deadline_us = 123456789;
  m.path = "/ssd/rank0/ckpt.h5";
  m.payload = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
               std::byte{5}};
  return m;
}

TEST(RpcCodec, SubmitRequestRoundTrip) {
  const SubmitRequestMsg m = sample_request();
  const auto frame = encode(77, m);
  EXPECT_EQ(std::get<MsgType>(peek_type(frame)), MsgType::kSubmitRequest);
  const Decoded d = decode(frame);
  ASSERT_TRUE(d.ok()) << refusal(frame);
  EXPECT_EQ(d.request_id, 77u);
  const auto& got = std::get<SubmitRequestMsg>(d.msg);
  EXPECT_EQ(got.op, m.op);
  EXPECT_EQ(got.tenant, m.tenant);
  EXPECT_EQ(got.file_id, m.file_id);
  EXPECT_EQ(got.offset, m.offset);
  EXPECT_EQ(got.size, m.size);
  EXPECT_EQ(got.deadline_us, m.deadline_us);
  EXPECT_EQ(got.path, m.path);
  EXPECT_EQ(got.payload, m.payload);
}

TEST(RpcCodec, EmptyPayloadAndPathRoundTrip) {
  SubmitRequestMsg m;
  m.op = WireOp::kFsync;
  const Decoded d = decode(encode(1, m));
  const auto& got = std::get<SubmitRequestMsg>(d.msg);
  EXPECT_TRUE(got.path.empty());
  EXPECT_TRUE(got.payload.empty());
}

TEST(RpcCodec, SubmitAckRoundTrip) {
  // The "held" ack is the request id alone: an empty body.
  const auto frame = encode(9, SubmitAckMsg{});
  EXPECT_EQ(frame.size(), kHeaderSize);
  const Decoded d = decode(frame);
  EXPECT_EQ(d.request_id, 9u);
  EXPECT_TRUE(std::holds_alternative<SubmitAckMsg>(d.msg));
}

TEST(RpcCodec, SubmitResponseRoundTrip) {
  for (auto status : {WireStatus::kOk, WireStatus::kIonDown,
                      WireStatus::kExpired, WireStatus::kError,
                      WireStatus::kRejected}) {
    SubmitResponseMsg m;
    m.status = status;
    m.value = 8192;
    m.data = {std::byte{0xAB}, std::byte{0xCD}};
    const Decoded d = decode(encode(42, m));
    const auto& got = std::get<SubmitResponseMsg>(d.msg);
    EXPECT_EQ(got.status, status);
    EXPECT_EQ(got.value, 8192u);
    EXPECT_EQ(got.data, m.data);
  }
  // One past the last status is refused.
  SubmitResponseMsg m;
  auto f = encode(43, m);
  f[kHeaderSize] = static_cast<std::byte>(
      static_cast<std::uint8_t>(WireStatus::kRejected) + 1);
  EXPECT_NE(refusal(f), "");
}

TEST(RpcCodec, MappingMessagesRoundTrip) {
  MappingGetMsg get;
  get.job = 17;
  EXPECT_EQ(std::get<MappingGetMsg>(decode(encode(5, get)).msg).job, 17u);

  MappingReplyMsg reply;
  reply.epoch = 12;
  reply.found = true;
  reply.ions = {0, 3, 5};
  const Decoded dr = decode(encode(6, reply));
  const auto& r = std::get<MappingReplyMsg>(dr.msg);
  EXPECT_EQ(r.epoch, 12u);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.ions, reply.ions);

  MappingPublishMsg pub;
  pub.text = "epoch 3\njob 1 -> 0 2\n";
  EXPECT_EQ(std::get<MappingPublishMsg>(decode(encode(7, pub)).msg).text,
            pub.text);

  EXPECT_TRUE(std::holds_alternative<MappingPublishAckMsg>(
      decode(encode(8, MappingPublishAckMsg{})).msg));
}

// --- a request's payload must agree with its op and size ------------------

// Each of these frames is intact (the checksum matches) and was refused
// only by the payload/size check: the daemon copies `size` bytes out of
// a slab sized from the payload, so a short payload would read past it.
TEST(RpcCodec, WritePayloadThatDisagreesWithSizeIsRefused) {
  SubmitRequestMsg m = sample_request();
  m.size = 16 * 1024;
  m.payload.assign(1, std::byte{0x42});
  EXPECT_EQ(refusal(encode(1, m)), "payload does not match op and size");
  m.size = 1;
  m.payload.assign(2, std::byte{0x42});
  EXPECT_EQ(refusal(encode(2, m)), "payload does not match op and size");
}

TEST(RpcCodec, AccountingOnlyWriteCarriesNoPayload) {
  SubmitRequestMsg m = sample_request();
  m.size = 16 * 1024;
  m.payload.clear();
  const Decoded d = decode(encode(1, m));
  ASSERT_TRUE(d.ok()) << refusal(encode(1, m));
  EXPECT_EQ(std::get<SubmitRequestMsg>(d.msg).size, 16u * 1024u);
}

TEST(RpcCodec, ReadOrFsyncWithAPayloadIsRefused) {
  for (auto op : {WireOp::kRead, WireOp::kFsync}) {
    SubmitRequestMsg m = sample_request();
    m.op = op;
    EXPECT_EQ(refusal(encode(1, m)), "payload does not match op and size")
        << static_cast<int>(op);
    m.payload.clear();
    EXPECT_TRUE(decode(encode(1, m)).ok()) << static_cast<int>(op);
  }
}

TEST(RpcCodec, RequestSizeOverTheBodyLimitIsRefused) {
  SubmitRequestMsg m;
  m.op = WireOp::kRead;
  m.size = kMaxBodyLen;
  EXPECT_TRUE(decode(encode(1, m)).ok());
  m.size = kMaxBodyLen + 1;
  EXPECT_EQ(refusal(encode(1, m)), "request size over limit");
  m.op = WireOp::kWrite;  // an accounting-only write
  EXPECT_EQ(refusal(encode(2, m)), "request size over limit");
}

// --- malformation: every failure is a typed CodecError -------------------

TEST(RpcCodec, TruncationAtEveryLengthIsTypedError) {
  const auto frame = encode(123, sample_request());
  ASSERT_GT(frame.size(), kHeaderSize);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::vector<std::byte> cut(frame.begin(),
                               frame.begin() + static_cast<long>(len));
    EXPECT_TRUE(refused(cut)) << "length " << len;
  }
  // The full frame still decodes (the loop above must not be vacuous).
  EXPECT_TRUE(decode(frame).ok());
}

TEST(RpcCodec, TrailingBytesAreATypedError) {
  auto frame = encode(1, SubmitAckMsg{});
  frame.push_back(std::byte{0});
  EXPECT_TRUE(refused(frame));
}

TEST(RpcCodec, WrongMagicVersionReservedAreTypedErrors) {
  const auto good = encode(1, SubmitAckMsg{});
  {
    auto f = good;
    f[0] = std::byte{0x00};  // magic
    EXPECT_TRUE(refused(f));
    EXPECT_TRUE(std::holds_alternative<CodecError>(peek_type(f)));
  }
  {
    auto f = good;
    f[4] = std::byte{kWireVersion + 1};  // version
    EXPECT_TRUE(refused(f));
  }
  {
    auto f = good;
    f[5] = std::byte{0x7F};  // unknown MsgType
    EXPECT_TRUE(refused(f));
  }
  {
    auto f = good;
    f[6] = std::byte{1};  // reserved u16
    EXPECT_TRUE(refused(f));
  }
  {
    auto f = good;
    f[20] = std::byte{1};  // reserved u32
    EXPECT_TRUE(refused(f));
  }
}

TEST(RpcCodec, ChecksumCatchesRequestIdFlip) {
  auto frame = encode(0x0102030405060708ull, SubmitAckMsg{});
  frame[8] ^= std::byte{0x01};  // request id is checksummed too
  EXPECT_TRUE(refused(frame));
}

/// Flip every byte of `good` in turn - all eight bits, then the single
/// bit (offset mod 8) - and require each mangled frame to be refused.
void expect_every_flip_rejected(const std::vector<std::byte>& good) {
  ASSERT_TRUE(decode(good).ok());
  for (std::size_t off = 0; off < good.size(); ++off) {
    for (const std::byte mask :
         {std::byte{0xFF}, static_cast<std::byte>(1u << (off % 8))}) {
      auto f = good;
      f[off] ^= mask;
      EXPECT_TRUE(refused(f))
          << "offset " << off << " of a " << good.size() << "-byte frame";
    }
  }
}

TEST(RpcCodec, SingleByteFlipAtEveryOffsetOfALargeFrameIsRejected) {
  // 16 KiB + 3 bytes: the checksum folds whole 32-byte lane blocks, a
  // word tail and a byte-wise tail, and every offset - header, lanes,
  // tails - must be covered.
  SubmitResponseMsg m;
  m.value = 4242;
  m.data.resize(16 * 1024 + 3 - kHeaderSize - 13);
  Rng rng(1337);
  for (auto& b : m.data) b = static_cast<std::byte>(rng.next() & 0xFF);
  const auto good = encode(0x1122334455667788ull, m);
  ASSERT_EQ(good.size(), 16u * 1024u + 3u);
  expect_every_flip_rejected(good);
}

TEST(RpcCodec, SingleByteFlipAtEveryOffsetOfEveryShortBodyIsRejected) {
  // Body lengths 0..100: shorter than one lane block, exactly one
  // block, and every word and byte remainder behind one and two blocks.
  // Length 0 is a publish ack or a submit ack and 4+ a publish whose
  // text fills the rest; no message has a 1-, 2- or 3-byte body.
  std::vector<std::vector<std::byte>> frames = {
      encode(11, MappingPublishAckMsg{}), encode(12, SubmitAckMsg{})};
  Rng rng(7);
  for (std::size_t len = 4; len <= 100; ++len) {
    std::string text(len - 4, '\0');
    for (auto& c : text) c = static_cast<char>(rng.next() & 0xFF);
    frames.push_back(encode(0xA5A5A5A5A5A5A5A5ull + len,
                            MappingPublishMsg{text}));
    ASSERT_EQ(frames.back().size(), kHeaderSize + len);
  }
  for (const auto& good : frames) expect_every_flip_rejected(good);
}

TEST(RpcCodec, Version2FrameIsATypedError) {
  // A genuine version-2 frame: version byte 2 and v2's serial checksum,
  // one word-at-a-time chain over header[0..24) ++ body with a
  // byte-wise tail. The 43-byte body runs the word loop and the tail.
  SubmitResponseMsg m;
  m.value = 9;
  m.data.assign(30, std::byte{0x3C});
  auto f = encode(6, m);
  f[4] = std::byte{2};
  std::vector<std::byte> covered(f.begin(), f.begin() + 24);
  covered.insert(covered.end(), f.begin() + kHeaderSize, f.end());
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 1469598103934665603ULL;
  std::size_t i = 0;
  for (; i + 8 <= covered.size(); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      word |= static_cast<std::uint64_t>(covered[i + k]) << (8 * k);
    }
    h = (h ^ word) * kPrime;
    h ^= h >> 32;
  }
  for (; i < covered.size(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(covered[i])) * kPrime;
  }
  for (int k = 0; k < 8; ++k) {
    f[24 + static_cast<std::size_t>(k)] =
        static_cast<std::byte>((h >> (8 * k)) & 0xFF);
  }
  EXPECT_TRUE(refused(f));
  EXPECT_NE(refusal(f).find("version 2"), std::string::npos) << refusal(f);
}

TEST(RpcCodec, Version1FrameIsATypedError) {
  // A genuine version-1 frame: version byte 1 and v1's byte-wise FNV-1a
  // checksum over header[0..24) ++ body.
  auto f = encode(5, SubmitAckMsg{});
  f[4] = std::byte{1};
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i >= 24 && i < kHeaderSize) continue;  // the hash field itself
    h = (h ^ static_cast<std::uint64_t>(f[i])) * 1099511628211ULL;
  }
  for (int i = 0; i < 8; ++i) {
    f[24 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((h >> (8 * i)) & 0xFF);
  }
  EXPECT_TRUE(refused(f));
  EXPECT_NE(refusal(f).find("version 1"), std::string::npos) << refusal(f);
}

TEST(RpcCodec, Version3FrameIsATypedError) {
  // A genuine version-3 frame: version byte 3 under the four-lane
  // checksum, which version 4 kept (only the messages changed). The
  // 77-byte body runs two lane blocks, a word tail and a byte tail.
  SubmitResponseMsg m;
  m.value = 4096;
  m.data.assign(64, std::byte{0xC3});
  auto f = encode(8, m);
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto word = [&](std::size_t at) {
    std::uint64_t w = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      w |= static_cast<std::uint64_t>(f[at + k]) << (8 * k);
    }
    return w;
  };
  const auto mix = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * kPrime;
    return h ^ (h >> 32);
  };
  const auto lanes_checksum = [&] {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < 24; i += 8) h = mix(h, word(i));
    std::uint64_t lane[4] = {
        h ^ 0x9E3779B97F4A7C15ULL, h ^ 0xC2B2AE3D27D4EB4FULL,
        h ^ 0x165667B19E3779F9ULL, h ^ 0x27D4EB2F165667C5ULL};
    const std::size_t n = f.size() - kHeaderSize;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      for (std::size_t l = 0; l < 4; ++l) {
        lane[l] = mix(lane[l], word(kHeaderSize + i + 8 * l));
      }
    }
    for (const std::uint64_t l : lane) h = mix(h, l);
    for (; i + 8 <= n; i += 8) h = mix(h, word(kHeaderSize + i));
    for (; i < n; ++i) {
      h = (h ^ static_cast<std::uint64_t>(f[kHeaderSize + i])) * kPrime;
    }
    return h;
  };
  // The checksum above is the one today's frames carry...
  ASSERT_EQ(lanes_checksum(), word(24));
  // ...so re-sealing under version byte 3 forges a genuine v3 frame.
  f[4] = std::byte{3};
  const std::uint64_t h = lanes_checksum();
  for (int k = 0; k < 8; ++k) {
    f[24 + static_cast<std::size_t>(k)] =
        static_cast<std::byte>((h >> (8 * k)) & 0xFF);
  }
  EXPECT_TRUE(refused(f));
  EXPECT_NE(refusal(f).find("version 3"), std::string::npos) << refusal(f);
}

/// One fuzz round: take a well-formed frame, mangle it (truncate to a
/// random length, or flip 1..8 random bits), and require decode() to
/// refuse it with a CodecError or - only when the mangling happened to
/// be a no-op - decode it. An exception or a crash fails.
void fuzz_frames(std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::vector<std::byte>> corpus = {
      encode(1, sample_request()),
      encode(2, SubmitAckMsg{}),
      encode(3,
             [] {
               SubmitResponseMsg m;
               m.value = 77;
               m.data.assign(64, std::byte{0x5A});
               return m;
             }()),
      encode(4, MappingGetMsg{}),
      encode(5,
             [] {
               MappingReplyMsg m;
               m.found = true;
               m.ions = {1, 2, 3, 4};
               return m;
             }()),
      encode(6, MappingPublishMsg{"epoch 1\n"}),
      encode(7, MappingPublishAckMsg{}),
  };
  for (int round = 0; round < 2000; ++round) {
    auto frame = corpus[rng.uniform_int(
        0, static_cast<int>(corpus.size()) - 1)];
    bool mutated = false;
    if (rng.uniform01() < 0.5) {
      const auto len = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(frame.size()) - 1));
      frame.resize(len);
      mutated = true;
    } else {
      const int flips = rng.uniform_int(1, 8);
      for (int i = 0; i < flips; ++i) {
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(frame.size()) - 1));
        frame[pos] ^= std::byte{
            static_cast<unsigned char>(1u << rng.uniform_int(0, 7))};
        mutated = true;
      }
    }
    Decoded d;
    EXPECT_NO_THROW(d = decode(frame))
        << "seed " << seed << " round " << round;
    if (d.ok()) {
      // Decoding can only succeed if the mangling restored a valid
      // frame; with XOR flips that means the flips cancelled - allowed
      // but astronomically rare. Truncation below header size never
      // passes.
      EXPECT_TRUE(!mutated || frame.size() >= kHeaderSize)
          << "seed " << seed << " round " << round;
    } else {
      EXPECT_TRUE(refused(frame)) << "seed " << seed << " round " << round;
    }
  }
}

TEST(RpcCodecFuzz, Seed1) { fuzz_frames(1); }
TEST(RpcCodecFuzz, Seed7) { fuzz_frames(7); }
TEST(RpcCodecFuzz, Seed1337) { fuzz_frames(1337); }

TEST(RpcCodec, OversizeBodyLengthIsRefusedWithoutAllocating) {
  // Forge a header claiming a multi-gigabyte body: the length check
  // must fire before any allocation happens (a flipped length bit must
  // not become an OOM).
  auto frame = encode(1, SubmitAckMsg{});
  frame[16] = std::byte{0xFF};
  frame[17] = std::byte{0xFF};
  frame[18] = std::byte{0xFF};
  frame[19] = std::byte{0x7F};
  EXPECT_TRUE(refused(frame));
}

}  // namespace
}  // namespace iofa::rpc
