#pragma once
// Per-daemon chunk storage: the node-local data store GekkoFS daemons
// keep (in production, backed by the node's SSD; here, in memory).
// Thread-safe; sharded locks keep concurrent clients off one mutex.

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"
#include "gkfs/chunk.hpp"

namespace iofa::gkfs {

class ChunkStore {
 public:
  explicit ChunkStore(Bytes chunk_size = kChunkSize);

  /// Write `data` at `offset_in_chunk` of (file, chunk); allocates and
  /// zero-fills the chunk on first touch.
  void write(std::uint64_t file_id, std::uint64_t chunk,
             std::uint64_t offset_in_chunk, std::span<const std::byte> data);

  /// Read into `out`. Bytes never written read back as zero. Returns the
  /// number of bytes copied (always out.size(); absent chunks are holes).
  std::size_t read(std::uint64_t file_id, std::uint64_t chunk,
                   std::uint64_t offset_in_chunk,
                   std::span<std::byte> out) const;

  /// Drop all chunks of a file. Returns chunks removed.
  std::size_t remove_file(std::uint64_t file_id);

  Bytes chunk_size() const { return chunk_size_; }

 private:
  struct Key {
    std::uint64_t file;
    std::uint64_t chunk;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t z = k.file ^ (k.chunk * 0x9E3779B97F4A7C15ULL);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<Key, std::vector<std::byte>, KeyHash> chunks
        IOFA_GUARDED_BY(mu);
  };

  Shard& shard_for(const Key& k) const;

  Bytes chunk_size_;
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace iofa::gkfs
