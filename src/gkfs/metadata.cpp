#include "gkfs/metadata.hpp"

#include <algorithm>

namespace iofa::gkfs {

bool MetadataStore::create(const std::string& path, bool exclusive) {
  MutexLock lk(mu_);
  return entries_.try_emplace(path).second || !exclusive;
}

std::optional<Metadata> MetadataStore::stat(const std::string& path) const {
  MutexLock lk(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void MetadataStore::extend(const std::string& path, Bytes end) {
  MutexLock lk(mu_);
  Bytes& size = entries_[path].size;
  size = std::max(size, end);
}

bool MetadataStore::remove(const std::string& path) {
  MutexLock lk(mu_);
  return entries_.erase(path) > 0;
}

}  // namespace iofa::gkfs
