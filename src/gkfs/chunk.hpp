#pragma once
// Chunking and placement, GekkoFS-style: every file is split into
// fixed-size chunks; a chunk's home daemon is determined by hashing the
// file path and chunk index, which balances data across all daemons
// without any central directory.

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace iofa::gkfs {

inline constexpr Bytes kChunkSize = 512 * KiB;  // GekkoFS default

/// FNV-1a path hash (stable across the library).
std::uint64_t hash_path(const std::string& path);

/// Home daemon of (file, chunk) among `daemons` targets.
std::size_t daemon_of(std::uint64_t path_hash, std::uint64_t chunk,
                      std::size_t daemons);

/// One contiguous slice of a client request that lands in one chunk.
struct ChunkSlice {
  std::uint64_t chunk = 0;
  std::uint64_t offset_in_chunk = 0;
  std::uint64_t file_offset = 0;
  std::uint64_t size = 0;
};

/// Split [offset, offset+size) into per-chunk slices.
std::vector<ChunkSlice> split_range(std::uint64_t offset, std::uint64_t size,
                                    Bytes chunk_size = kChunkSize);

}  // namespace iofa::gkfs
