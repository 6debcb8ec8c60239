// Tests for the GekkoFS substrate: chunk math, placement hashing,
// metadata, chunk stores and the distributed filesystem facade.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "gkfs/chunk.hpp"
#include "gkfs/chunk_store.hpp"
#include "gkfs/filesystem.hpp"
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
  EXPECT_EQ(chunk_index(0), 0u);
  EXPECT_EQ(chunk_index(kChunkSize - 1), 0u);
  EXPECT_EQ(chunk_index(kChunkSize), 1u);
  EXPECT_EQ(chunk_index(10 * kChunkSize + 5), 10u);
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
  EXPECT_FALSE(md.exists("/a"));
  EXPECT_TRUE(md.create("/a"));
  EXPECT_TRUE(md.exists("/a"));
  ASSERT_TRUE(md.stat("/a").has_value());
  EXPECT_EQ(md.stat("/a")->size, 0u);
  EXPECT_TRUE(md.remove("/a"));
  EXPECT_FALSE(md.exists("/a"));
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

TEST(Metadata, TruncateSetsExactSize) {
  MetadataStore md;
  md.extend("/a", 100);
  EXPECT_TRUE(md.truncate("/a", 10));
  EXPECT_EQ(md.stat("/a")->size, 10u);
  EXPECT_FALSE(md.truncate("/missing", 0));
}

TEST(Metadata, ListSorted) {
  MetadataStore md;
  md.create("/b");
  md.create("/a");
  md.create("/c");
  EXPECT_EQ(md.list(), (std::vector<std::string>{"/a", "/b", "/c"}));
  EXPECT_EQ(md.count(), 3u);
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
  EXPECT_EQ(store.chunk_count(), 1u);
}

TEST(ChunkStoreTest, AccountsBytes) {
  ChunkStore store;
  store.write(1, 0, 0, pattern_data(1000, 1));
  EXPECT_EQ(store.bytes_stored(), 1000u);
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
  EXPECT_EQ(store.chunk_count(), 8u * 32u);
  // Verify one thread's data read back intact.
  const auto expected = pattern_data(4096, 3);
  std::vector<std::byte> out(4096);
  store.read(3, 17, 0, out);
  EXPECT_EQ(out, expected);
}

// ------------------------------------------------------------ filesystem
TEST(GekkoFsTest, WriteReadAcrossDaemons) {
  GekkoFs fs(4);
  const auto data = pattern_data(3 * kChunkSize + 777, 42);
  fs.pwrite("/big", 0, data);
  std::vector<std::byte> out(data.size());
  EXPECT_EQ(fs.pread("/big", 0, out), data.size());
  EXPECT_EQ(out, data);
}

TEST(GekkoFsTest, MetadataTracksSize) {
  GekkoFs fs(2);
  fs.pwrite("/f", 100, pattern_data(50, 1));
  ASSERT_TRUE(fs.stat("/f").has_value());
  EXPECT_EQ(fs.stat("/f")->size, 150u);
}

TEST(GekkoFsTest, ReadPastEofClamped) {
  GekkoFs fs(2);
  fs.pwrite("/f", 0, pattern_data(100, 1));
  std::vector<std::byte> out(200);
  EXPECT_EQ(fs.pread("/f", 50, out), 50u);
  EXPECT_EQ(fs.pread("/f", 100, out), 0u);
  EXPECT_EQ(fs.pread("/missing", 0, out), 0u);
}

TEST(GekkoFsTest, OffsetReadMatchesSlice) {
  GekkoFs fs(3);
  const auto data = pattern_data(2 * kChunkSize, 9);
  fs.pwrite("/f", 0, data);
  std::vector<std::byte> out(1000);
  fs.pread("/f", kChunkSize - 500, out);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data() + kChunkSize - 500,
                           1000));
}

TEST(GekkoFsTest, RemoveFreesData) {
  GekkoFs fs(2);
  fs.pwrite("/f", 0, pattern_data(kChunkSize * 2, 3));
  EXPECT_TRUE(fs.remove("/f"));
  EXPECT_FALSE(fs.exists("/f"));
  std::uint64_t total = 0;
  for (auto u : fs.daemon_usage()) total += u;
  EXPECT_EQ(total, 0u);
}

TEST(GekkoFsTest, DataSpreadsAcrossDaemons) {
  GekkoFs fs(4);
  for (int f = 0; f < 8; ++f) {
    fs.pwrite("/f" + std::to_string(f), 0, pattern_data(8 * kChunkSize, 1));
  }
  const auto usage = fs.daemon_usage();
  for (auto u : usage) EXPECT_GT(u, 0u);  // every daemon holds something
}

TEST(GekkoFsTest, HomeDaemonConsistentWithPlacement) {
  GekkoFs fs(5);
  EXPECT_EQ(fs.home_daemon("/x", 3), daemon_of(hash_path("/x"), 3, 5));
}

TEST(GekkoFsTest, SparseFileHolesReadZero) {
  GekkoFs fs(2);
  fs.pwrite("/f", 10 * kChunkSize, pattern_data(100, 5));
  std::vector<std::byte> out(100, std::byte{0xAA});
  EXPECT_EQ(fs.pread("/f", 0, out), 100u);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(GekkoFsTest, ConcurrentClientsRoundTrip) {
  GekkoFs fs(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const std::string path = "/client" + std::to_string(t);
      const auto data = pattern_data(kChunkSize + 123,
                                     static_cast<std::uint64_t>(t));
      fs.pwrite(path, 0, data);
      std::vector<std::byte> out(data.size());
      EXPECT_EQ(fs.pread(path, 0, out), data.size());
      EXPECT_EQ(out, data);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace iofa::gkfs
