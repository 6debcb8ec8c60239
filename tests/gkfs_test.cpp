// Tests for the GekkoFS substrate: chunk math, placement hashing,
// metadata and chunk stores.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/rng.hpp"
#include "gkfs/chunk.hpp"
#include "gkfs/chunk_store.hpp"
#include "gkfs/metadata.hpp"

namespace iofa::gkfs {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

std::vector<std::byte> pattern_data(std::size_t n, std::uint64_t seed) {
  iofa::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

// ----------------------------------------------------------------- chunk
TEST(Chunk, IndexMath) {
  const auto chunk_of = [](std::uint64_t offset) {
    return split_range(offset, 1).front().chunk;
  };
  EXPECT_EQ(chunk_of(0), 0u);
  EXPECT_EQ(chunk_of(kChunkSize - 1), 0u);
  EXPECT_EQ(chunk_of(kChunkSize), 1u);
  EXPECT_EQ(chunk_of(10 * kChunkSize + 5), 10u);
}

TEST(Chunk, SplitRangeSingleChunk) {
  const auto slices = split_range(100, 200);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].chunk, 0u);
  EXPECT_EQ(slices[0].offset_in_chunk, 100u);
  EXPECT_EQ(slices[0].size, 200u);
}

TEST(Chunk, SplitRangeAcrossChunks) {
  const auto slices = split_range(kChunkSize - 100, 300);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].chunk, 0u);
  EXPECT_EQ(slices[0].size, 100u);
  EXPECT_EQ(slices[1].chunk, 1u);
  EXPECT_EQ(slices[1].offset_in_chunk, 0u);
  EXPECT_EQ(slices[1].size, 200u);
}

TEST(Chunk, SplitRangeCoversExactly) {
  const auto slices = split_range(12345, 5 * kChunkSize + 678);
  std::uint64_t total = 0;
  std::uint64_t expected_pos = 12345;
  for (const auto& s : slices) {
    EXPECT_EQ(s.file_offset, expected_pos);
    expected_pos += s.size;
    total += s.size;
    EXPECT_LE(s.offset_in_chunk + s.size, kChunkSize);
  }
  EXPECT_EQ(total, 5 * kChunkSize + 678);
}

TEST(Chunk, PlacementIsDeterministic) {
  EXPECT_EQ(daemon_of(123, 4, 8), daemon_of(123, 4, 8));
}

TEST(Chunk, PlacementSpreadsChunks) {
  // Consecutive chunks of one file should not all land on one daemon.
  const std::uint64_t h = hash_path("/data/file");
  std::set<std::size_t> targets;
  for (std::uint64_t c = 0; c < 64; ++c) targets.insert(daemon_of(h, c, 8));
  EXPECT_GE(targets.size(), 6u);
}

TEST(Chunk, PlacementBalanced) {
  // Chi-squared-ish sanity: across many (file, chunk) pairs the daemon
  // histogram is near-uniform.
  std::vector<int> hist(8, 0);
  for (int f = 0; f < 64; ++f) {
    const std::uint64_t h = hash_path("/f" + std::to_string(f));
    for (std::uint64_t c = 0; c < 32; ++c) {
      hist[daemon_of(h, c, 8)]++;
    }
  }
  const int total = 64 * 32;
  for (int count : hist) {
    EXPECT_NEAR(count, total / 8, total / 16);
  }
}

// -------------------------------------------------------------- metadata
TEST(Metadata, CreateStatRemove) {
  MetadataStore md;
  EXPECT_FALSE(md.stat("/a").has_value());
  EXPECT_TRUE(md.create("/a"));
  ASSERT_TRUE(md.stat("/a").has_value());
  EXPECT_EQ(md.stat("/a")->size, 0u);
  EXPECT_TRUE(md.remove("/a"));
  EXPECT_FALSE(md.stat("/a").has_value());
  EXPECT_FALSE(md.remove("/a"));
}

TEST(Metadata, ExclusiveCreateFailsOnExisting) {
  MetadataStore md;
  EXPECT_TRUE(md.create("/a", /*exclusive=*/true));
  EXPECT_FALSE(md.create("/a", /*exclusive=*/true));
  EXPECT_TRUE(md.create("/a", /*exclusive=*/false));
}

TEST(Metadata, ExtendGrowsMonotonically) {
  MetadataStore md;
  md.extend("/a", 100);
  md.extend("/a", 50);
  EXPECT_EQ(md.stat("/a")->size, 100u);
  md.extend("/a", 300);
  EXPECT_EQ(md.stat("/a")->size, 300u);
}

// ------------------------------------------------------------ chunkstore
TEST(ChunkStoreTest, WriteReadRoundTrip) {
  ChunkStore store;
  const auto data = bytes({1, 2, 3, 4, 5});
  store.write(1, 0, 10, data);
  std::vector<std::byte> out(5);
  store.read(1, 0, 10, out);
  EXPECT_EQ(out, data);
}

TEST(ChunkStoreTest, UnwrittenReadsAsZero) {
  ChunkStore store;
  std::vector<std::byte> out(4, std::byte{0xFF});
  store.read(7, 3, 0, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(ChunkStoreTest, PartialChunkReadsZeroTail) {
  ChunkStore store;
  store.write(1, 0, 0, bytes({9}));
  std::vector<std::byte> out(3, std::byte{0xFF});
  store.read(1, 0, 0, out);
  EXPECT_EQ(out[0], std::byte{9});
  EXPECT_EQ(out[1], std::byte{0});
  EXPECT_EQ(out[2], std::byte{0});
}

TEST(ChunkStoreTest, ReadStartingPastStoredPrefixIsAllZero) {
  ChunkStore store;
  store.write(1, 0, 0, bytes({1, 2, 3, 4}));
  std::vector<std::byte> out(4, std::byte{0xFF});
  store.read(1, 0, 8, out);  // wholly past the 4 stored bytes
  EXPECT_EQ(out, bytes({0, 0, 0, 0}));
  std::vector<std::byte> straddle(4, std::byte{0xFF});
  store.read(1, 0, 2, straddle);  // two stored bytes, then the hole
  EXPECT_EQ(straddle, bytes({3, 4, 0, 0}));
}

TEST(ChunkStoreTest, RemoveFileDropsAllChunks) {
  ChunkStore store;
  store.write(1, 0, 0, bytes({1}));
  store.write(1, 5, 0, bytes({2}));
  store.write(2, 0, 0, bytes({3}));
  EXPECT_EQ(store.remove_file(1), 2u);
  std::vector<std::byte> out(1, std::byte{0xFF});
  store.read(1, 5, 0, out);
  EXPECT_EQ(out, bytes({0}));
  store.read(2, 0, 0, out);  // the other file's chunk stays
  EXPECT_EQ(out, bytes({3}));
}

TEST(ChunkStoreTest, ConcurrentWritersDistinctChunks) {
  ChunkStore store;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto data = pattern_data(4096, static_cast<std::uint64_t>(t));
      for (std::uint64_t c = 0; c < 32; ++c) {
        store.write(static_cast<std::uint64_t>(t), c, 0, data);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every thread's chunks read back intact.
  std::vector<std::byte> out(4096);
  for (std::uint64_t t = 0; t < 8; ++t) {
    const auto expected = pattern_data(4096, t);
    for (std::uint64_t c = 0; c < 32; ++c) {
      store.read(t, c, 0, out);
      EXPECT_EQ(out, expected) << "file " << t << " chunk " << c;
    }
  }
}
}  // namespace
}  // namespace iofa::gkfs
