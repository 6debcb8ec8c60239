#include "workload/queuegen.hpp"

#include <cassert>

namespace iofa::workload {

std::vector<AppSpec> random_covering_queue(Rng& rng, std::size_t n_jobs) {
  const auto apps = table3_applications();
  assert(n_jobs >= apps.size());
  std::vector<AppSpec> queue;
  queue.reserve(n_jobs);
  for (const auto& a : apps) queue.push_back(a);
  for (std::size_t i = apps.size(); i < n_jobs; ++i) {
    queue.push_back(apps[rng.index(apps.size())]);
  }
  rng.shuffle(queue);
  return queue;
}

std::vector<AppSpec> paper_queue() {
  const char* order[] = {"HACC", "IOR-MPI", "SIM",  "IOR-MPI", "IOR-MPI",
                         "POSIX-S", "POSIX-L", "BT-C", "MAD", "MAD",
                         "S3D", "HACC", "HACC", "BT-D"};
  std::vector<AppSpec> queue;
  queue.reserve(std::size(order));
  for (const char* label : order) queue.push_back(application(label));
  return queue;
}

}  // namespace iofa::workload
