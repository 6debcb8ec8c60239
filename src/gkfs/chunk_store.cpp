#include "gkfs/chunk_store.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace iofa::gkfs {

ChunkStore::ChunkStore(Bytes chunk_size) : chunk_size_(chunk_size) {}

ChunkStore::Shard& ChunkStore::shard_for(const Key& k) const {
  return shards_[KeyHash{}(k) % kShards];
}

void ChunkStore::write(std::uint64_t file_id, std::uint64_t chunk,
                       std::uint64_t offset_in_chunk,
                       std::span<const std::byte> data) {
  assert(offset_in_chunk + data.size() <= chunk_size_);
  const Key key{file_id, chunk};
  Shard& shard = shard_for(key);
  MutexLock lk(shard.mu);
  auto& buf = shard.chunks[key];
  if (buf.size() < offset_in_chunk + data.size()) {
    buf.resize(offset_in_chunk + data.size());
  }
  std::memcpy(buf.data() + offset_in_chunk, data.data(), data.size());
}

std::size_t ChunkStore::read(std::uint64_t file_id, std::uint64_t chunk,
                             std::uint64_t offset_in_chunk,
                             std::span<std::byte> out) const {
  const Key key{file_id, chunk};
  Shard& shard = shard_for(key);
  MutexLock lk(shard.mu);
  auto it = shard.chunks.find(key);
  if (it == shard.chunks.end()) {
    std::memset(out.data(), 0, out.size());
    return out.size();
  }
  // The stored prefix is copied, anything past the chunk's end reads
  // as zeros (a sparse hole).
  const auto& buf = it->second;
  const std::size_t have =
      offset_in_chunk < buf.size()
          ? std::min<std::size_t>(out.size(), buf.size() - offset_in_chunk)
          : 0;
  if (have > 0) std::memcpy(out.data(), buf.data() + offset_in_chunk, have);
  std::memset(out.data() + have, 0, out.size() - have);
  return out.size();
}

std::size_t ChunkStore::remove_file(std::uint64_t file_id) {
  std::size_t removed = 0;
  for (auto& shard : shards_) {
    MutexLock lk(shard.mu);
    for (auto it = shard.chunks.begin(); it != shard.chunks.end();) {
      if (it->first.file == file_id) {
        it = shard.chunks.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

}  // namespace iofa::gkfs
