#include "fwd/ports.hpp"

#include "fwd/mapping.hpp"

namespace iofa::fwd {

std::optional<MappingSnapshot> DirectMappingPort::fetch(core::JobId job) {
  return store_->snapshot(job);
}

bool DirectMappingPort::publish(const core::Mapping& mapping) {
  if (!writable_) return false;
  writable_->publish(mapping);
  return true;
}

}  // namespace iofa::fwd
