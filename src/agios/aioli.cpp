#include "agios/aioli.hpp"

#include <algorithm>
#include <limits>

namespace iofa::agios {

void AioliScheduler::add(SchedRequest req) {
  auto [it, inserted] = files_.try_emplace(req.file_id);
  if (inserted) it->second.quantum = base_quantum_;
  if (it->second.by_offset.empty() ||
      req.arrival < it->second.oldest_arrival) {
    it->second.oldest_arrival = req.arrival;
  }
  it->second.by_offset.emplace(req.offset, req);
  ++count_;
}

std::optional<Dispatch> AioliScheduler::pop(Seconds now) {
  if (count_ == 0) return std::nullopt;

  // Pick the file whose head is ripe (waited out its window, by the sum
  // next_ready_time() reports) or whose head continues its previous
  // stream (no reason to wait); prefer the oldest arrival for fairness.
  auto best = files_.end();
  Seconds best_arrival = std::numeric_limits<Seconds>::infinity();
  for (auto it = files_.begin(); it != files_.end(); ++it) {
    if (it->second.by_offset.empty()) continue;
    const auto& head = it->second.by_offset.begin()->second;
    const bool continues =
        head.offset == it->second.next_offset && it->second.next_offset > 0;
    const bool ripe = now >= it->second.oldest_arrival + wait_window_;
    if (!continues && !ripe) continue;
    if (it->second.oldest_arrival < best_arrival) {
      best_arrival = it->second.oldest_arrival;
      best = it;
    }
  }
  if (best == files_.end()) return std::nullopt;

  FileQueue& fq = best->second;
  auto head = fq.by_offset.begin();

  // Adapt the quantum BEFORE serving: continuing the previous dispatch's
  // stream doubles it (sequential streams earn longer turns); a break in
  // the stream resets it to the base.
  if (head->second.offset == fq.next_offset && fq.next_offset > 0) {
    fq.quantum = std::min(max_quantum_, fq.quantum * 2);
  } else {
    fq.quantum = base_quantum_;
  }

  Dispatch d;
  d.file_id = best->first;
  d.op = head->second.op;
  d.offset = head->second.offset;
  d.size = 0;

  // Serve offset-order contiguous work up to the adaptive quantum.
  std::uint64_t end = head->second.offset;
  auto it = head;
  while (it != fq.by_offset.end()) {
    if (it->second.op != d.op) break;
    if (it->second.offset != end) break;
    if (d.size + it->second.size > fq.quantum && !d.parts.empty()) break;
    d.parts.push_back(it->second);
    d.size += it->second.size;
    end += it->second.size;
    it = fq.by_offset.erase(it);
    --count_;
  }
  fq.next_offset = end;
  if (!fq.by_offset.empty()) {
    Seconds oldest = std::numeric_limits<Seconds>::infinity();
    for (const auto& [off, req] : fq.by_offset) {
      oldest = std::min(oldest, req.arrival);
    }
    fq.oldest_arrival = oldest;
  } else {
    files_.erase(best);
  }
  return d;
}

std::optional<Seconds> AioliScheduler::next_ready_time(Seconds now) const {
  (void)now;
  if (count_ == 0) return std::nullopt;
  Seconds earliest = std::numeric_limits<Seconds>::infinity();
  for (const auto& [file, fq] : files_) {
    if (fq.by_offset.empty()) continue;
    const auto& head = fq.by_offset.begin()->second;
    if (head.offset == fq.next_offset && fq.next_offset > 0) {
      return std::nullopt;  // a stream continuation is ready right now
    }
    earliest = std::min(earliest, fq.oldest_arrival + wait_window_);
  }
  return earliest;
}

}  // namespace iofa::agios
