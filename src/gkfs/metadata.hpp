#pragma once
// GekkoFS metadata: a flat path -> metadata map (GekkoFS relaxes POSIX
// directory semantics; paths are plain keys). Thread-safe.

#include <optional>
#include <string>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"

namespace iofa::gkfs {

struct Metadata {
  Bytes size = 0;
};

class MetadataStore {
 public:
  /// Create an entry. Returns false if the path already exists and
  /// `exclusive` is true; otherwise existing entries are left intact.
  bool create(const std::string& path, bool exclusive = false);

  std::optional<Metadata> stat(const std::string& path) const;

  /// Grow the recorded size to at least `end` (writes extend files).
  void extend(const std::string& path, Bytes end);

  bool remove(const std::string& path);

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, Metadata> entries_ IOFA_GUARDED_BY(mu_);
};

}  // namespace iofa::gkfs
