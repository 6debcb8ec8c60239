#pragma once
// Random job-queue generation (the paper's zenodo queue-generator tool)
// plus the specific 14-job queue evaluated in Section 5.3.

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/kernels.hpp"

namespace iofa::workload {

/// Sample a queue that contains at least one instance of every
/// application, like the queue the paper selected ("at least one job of
/// each application"). Requires n_jobs >= 9.
std::vector<AppSpec> random_covering_queue(Rng& rng, std::size_t n_jobs);

/// The exact queue of Section 5.3, in submission order:
/// HACC, IOR-MPI, SIM, IOR-MPI, IOR-MPI, POSIX-S, POSIX-L, BT-C, MAD,
/// MAD, S3D, HACC, HACC, BT-D.
std::vector<AppSpec> paper_queue();

}  // namespace iofa::workload
