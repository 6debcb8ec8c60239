#include "gkfs/chunk.hpp"

#include <algorithm>

namespace iofa::gkfs {

std::uint64_t hash_path(const std::string& path) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : path) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t daemon_of(std::uint64_t path_hash, std::uint64_t chunk,
                      std::size_t daemons) {
  if (daemons == 0) return 0;
  // Mix the chunk index into the path hash (splitmix-style finalizer) so
  // consecutive chunks of one file spread across daemons.
  std::uint64_t z = path_hash + 0x9E3779B97F4A7C15ULL * (chunk + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % daemons);
}

std::vector<ChunkSlice> split_range(std::uint64_t offset, std::uint64_t size,
                                    Bytes chunk_size) {
  std::vector<ChunkSlice> slices;
  std::uint64_t pos = offset;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    ChunkSlice s;
    s.chunk = pos / chunk_size;
    s.offset_in_chunk = pos % chunk_size;
    s.file_offset = pos;
    s.size = std::min<std::uint64_t>(remaining,
                                     chunk_size - s.offset_in_chunk);
    slices.push_back(s);
    pos += s.size;
    remaining -= s.size;
  }
  return slices;
}

}  // namespace iofa::gkfs
