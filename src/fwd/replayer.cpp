#include "fwd/replayer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace iofa::fwd {

using workload::FileLayout;
using workload::Operation;
using workload::Spatiality;

MBps ReplayResult::bandwidth() const {
  return bandwidth_mbps(write_bytes + read_bytes, makespan);
}

namespace {

/// File name for a phase. File-per-process layouts get one file per rank.
std::string phase_file(const workload::AppSpec& app,
                       const workload::IoPhaseSpec& ph, std::size_t phase_idx,
                       std::uint32_t rank) {
  std::string base = "/job-" + app.label + "/" +
                     (ph.file_tag.empty()
                          ? "phase" + std::to_string(phase_idx)
                          : ph.file_tag);
  if (ph.layout == FileLayout::FilePerProcess) {
    base += ".rank" + std::to_string(rank);
  }
  return base;
}

struct PhasePlan {
  const workload::IoPhaseSpec* spec = nullptr;
  std::size_t index = 0;
  int writers = 0;
  std::uint64_t requests_per_writer = 0;
  Bytes request_size = 0;
};

/// Offset of request `i` of rank `r` within the phase's file layout.
std::uint64_t request_offset(const PhasePlan& plan, std::uint32_t rank,
                             std::uint64_t i) {
  const Bytes req = plan.request_size;
  if (plan.spec->layout == FileLayout::FilePerProcess) {
    return i * req;  // private file, always contiguous
  }
  if (plan.spec->spatiality == Spatiality::Contiguous) {
    // Each rank owns a contiguous segment of the shared file.
    const std::uint64_t segment = plan.requests_per_writer * req;
    return static_cast<std::uint64_t>(rank) * segment + i * req;
  }
  // 1D-strided: ranks interleave block-by-block.
  return (i * static_cast<std::uint64_t>(plan.writers) + rank) * req;
}

}  // namespace

ReplayResult replay_app(Client& client, const workload::AppSpec& app,
                        const ReplayOptions& options) {
  ReplayResult result;
  result.app_label = app.label;

  const auto t_begin = iofa::monotonic_now();
  // Payload bytes only when the PFS keeps them (verification runs);
  // accounting-only deployments replay sizes.
  const bool store_data = client.service().pfs().params().store_data;

  for (std::size_t pi = 0; pi < app.phases.size(); ++pi) {
    const auto& ph = app.phases[pi];

    PhasePlan plan;
    plan.spec = &ph;
    plan.index = pi;
    plan.writers = ph.writers > 0 ? ph.writers : app.processes;
    plan.request_size = std::max<Bytes>(1, ph.request_size);
    Bytes scaled_total = static_cast<Bytes>(
        std::max(1.0, static_cast<double>(ph.total_bytes) *
                          options.volume_scale));
    scaled_total = std::max(
        scaled_total, std::min(options.min_phase_bytes, ph.total_bytes));
    // Scaling must not inflate the volume back up: when the scaled phase
    // holds fewer requests than writers, shrink the participating writer
    // set rather than forcing one request per writer.
    const auto max_writers = static_cast<int>(std::max<Bytes>(
        1, scaled_total / plan.request_size));
    plan.writers = std::min(plan.writers, max_writers);
    plan.requests_per_writer = std::max<std::uint64_t>(
        1, scaled_total / (static_cast<Bytes>(plan.writers) *
                           plan.request_size));

    // Each thread stands for writers/threads logical processes; the
    // caller encodes that ratio in the client's stream_weight when it
    // builds the Client (see jobs::LiveExecutor).
    const int threads =
        std::max(1, std::min(options.threads, plan.writers));

    std::atomic<Bytes> phase_bytes{0};
    const auto t0 = iofa::monotonic_now();

    // Per-phase replay ranks, joined at phase end; their count is part
    // of the workload shape, not a tunable pool width.
    std::vector<std::thread> workers;  // iofa-lint: allow(raw-thread)
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(options.seed + static_cast<std::uint64_t>(t) * 7919 +
                pi * 104729);
        // Fill pattern handed to pwrite, which copies it into a slab
        // payload at the submit boundary; never enters a FwdRequest.
        std::vector<std::byte> payload;  // iofa-lint: allow(raw-payload)
        if (store_data) {
          payload.resize(plan.request_size);
          for (auto& b : payload) {
            b = static_cast<std::byte>(rng.next() & 0xFF);
          }
        }
        // Interleave the thread's ranks so their streams stay concurrent
        // at the file, as real per-process clients would be.
        std::vector<std::uint32_t> my_ranks;
        for (int r = t; r < plan.writers; r += threads) {
          my_ranks.push_back(static_cast<std::uint32_t>(r));
        }
        for (std::uint64_t i = 0; i < plan.requests_per_writer; ++i) {
          for (std::uint32_t rank : my_ranks) {
            const std::string path = phase_file(app, ph, pi, rank);
            const std::uint64_t offset = request_offset(plan, rank, i);
            std::size_t n = 0;
            if (ph.operation == Operation::Write) {
              n = client.pwrite(rank, path, offset, plan.request_size,
                                store_data
                                    ? std::span<const std::byte>(payload)
                                    : std::span<const std::byte>());
            } else {
              n = client.pread(rank, path, offset, plan.request_size);
            }
            phase_bytes.fetch_add(n);
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    if (ph.flush_after && ph.operation == Operation::Write) {
      // Checkpoint barrier: every file of the phase must reach the PFS.
      std::set<std::string> files;
      for (int r = 0; r < plan.writers; ++r) {
        files.insert(phase_file(app, ph, pi,
                                static_cast<std::uint32_t>(r)));
      }
      for (const auto& f : files) client.fsync(f);
    }

    const auto t1 = iofa::monotonic_now();
    PhaseResult pr;
    pr.operation = ph.operation;
    pr.bytes = phase_bytes.load();
    pr.elapsed = std::chrono::duration<double>(t1 - t0).count();
    pr.bandwidth = bandwidth_mbps(pr.bytes, pr.elapsed);
    if (ph.operation == Operation::Write) {
      result.write_bytes += pr.bytes;
    } else {
      result.read_bytes += pr.bytes;
    }
    result.phases.push_back(pr);
  }

  result.makespan = std::chrono::duration<double>(
                        iofa::monotonic_now() - t_begin)
                        .count();
  return result;
}

ReplayResult replay_pattern(Client& client,
                            const workload::AccessPattern& pattern,
                            const ReplayOptions& options,
                            const std::string& label) {
  const auto app = workload::app_from_pattern(label, pattern);
  return replay_app(client, app, options);
}

}  // namespace iofa::fwd
