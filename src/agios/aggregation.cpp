#include "agios/aggregation.hpp"

#include <limits>

namespace iofa::agios {

void AggregationScheduler::add(SchedRequest req) {
  streams_[StreamKey{req.file_id, req.op}].emplace(req.offset, req);
  ++count_;
}

std::uint64_t AggregationScheduler::run_size(
    const OffsetQueue& queue, OffsetQueue::const_iterator it) const {
  std::uint64_t total = it->second.size;
  std::uint64_t end = it->second.offset + it->second.size;
  for (auto next = std::next(it); next != queue.end(); ++next) {
    if (next->second.offset != end) break;
    total += next->second.size;
    end += next->second.size;
    if (total >= max_aggregate_) break;
  }
  return total;
}

std::optional<Dispatch> AggregationScheduler::pop(Seconds now) {
  if (count_ == 0) return std::nullopt;

  // A request is ripe when its window expired (by the very sum
  // next_ready_time() reports) or its contiguous run already reached the
  // aggregation cap. Pick the ripe request with the earliest arrival so
  // ordering stays fair across files.
  auto best_stream = streams_.end();
  OffsetQueue::iterator best_it;
  Seconds best_arrival = std::numeric_limits<Seconds>::infinity();

  for (auto s = streams_.begin(); s != streams_.end(); ++s) {
    for (auto it = s->second.begin(); it != s->second.end(); ++it) {
      const SchedRequest& req = it->second;
      const bool expired = now >= req.arrival + window_;
      if (!expired && run_size(s->second, it) < max_aggregate_) continue;
      if (req.arrival < best_arrival) {
        best_arrival = req.arrival;
        best_stream = s;
        best_it = it;
      }
      break;  // only the head candidate per scan position matters
    }
  }
  if (best_stream == streams_.end()) return std::nullopt;

  // Merge the contiguous run starting at the ripe request. Extend
  // backwards first: earlier offsets that are exactly adjacent join
  // too - but only while the run through the ripe request stays under
  // the aggregation cap. An uncapped backward walk could push the
  // window so far back that the capped forward merge below would stop
  // before the very request whose ripeness triggered this dispatch
  // (and hand the PFS an over-cap run besides).
  auto& queue = best_stream->second;
  auto start = best_it;
  std::uint64_t run_bytes = best_it->second.size;
  while (start != queue.begin()) {
    auto prev = std::prev(start);
    if (prev->second.offset + prev->second.size != start->second.offset)
      break;
    if (run_bytes + prev->second.size > max_aggregate_) break;
    run_bytes += prev->second.size;
    start = prev;
  }

  Dispatch d;
  d.file_id = best_stream->first.file_id;
  d.op = best_stream->first.op;
  d.offset = start->second.offset;
  d.size = 0;
  std::uint64_t end = start->second.offset;
  auto it = start;
  while (it != queue.end()) {
    if (it->second.offset != end) break;
    if (d.size + it->second.size > max_aggregate_ && !d.parts.empty()) break;
    d.parts.push_back(it->second);
    d.size += it->second.size;
    end += it->second.size;
    it = queue.erase(it);
    --count_;
  }
  if (d.parts.size() > 1) merged_ += d.parts.size();
  ++dispatches_;
  if (queue.empty()) streams_.erase(best_stream);
  return d;
}

std::optional<Seconds> AggregationScheduler::next_ready_time(
    Seconds now) const {
  (void)now;
  if (count_ == 0) return std::nullopt;
  Seconds earliest = std::numeric_limits<Seconds>::infinity();
  for (const auto& [key, queue] : streams_) {
    for (const auto& [offset, req] : queue) {
      earliest = std::min(earliest, req.arrival + window_);
    }
  }
  return earliest;
}

}  // namespace iofa::agios
