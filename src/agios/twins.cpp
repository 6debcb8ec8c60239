#include "agios/twins.hpp"

#include <cmath>

namespace iofa::agios {

int TwinsScheduler::server_of(const SchedRequest& req) const {
  const std::uint64_t stripe_index = req.offset / stripe_;
  return static_cast<int>((req.file_id + stripe_index) %
                          static_cast<std::uint64_t>(servers_));
}

int TwinsScheduler::window_index(Seconds now) const {
  // Window w starts at w * window_, the product next_ready_time()
  // reports; the quotient only estimates w and may round across that
  // start either way.
  const int w = static_cast<int>(std::floor(now / window_));
  if (static_cast<Seconds>(w + 1) * window_ <= now) return w + 1;
  if (static_cast<Seconds>(w) * window_ > now) return w - 1;
  return w;
}

int TwinsScheduler::current_server(Seconds now) const {
  const int w = window_index(now);
  return ((w % servers_) + servers_) % servers_;
}

void TwinsScheduler::add(SchedRequest req) {
  queues_[static_cast<std::size_t>(server_of(req))].push_back(req);
  ++count_;
}

std::optional<Dispatch> TwinsScheduler::pop(Seconds now) {
  if (count_ == 0) return std::nullopt;
  auto& queue = queues_[static_cast<std::size_t>(current_server(now))];
  if (queue.empty()) return std::nullopt;  // hold until the window turns
  const SchedRequest req = queue.front();
  queue.pop_front();
  --count_;
  Dispatch d;
  d.file_id = req.file_id;
  d.op = req.op;
  d.offset = req.offset;
  d.size = req.size;
  d.parts = {req};
  return d;
}

std::optional<Seconds> TwinsScheduler::next_ready_time(Seconds now) const {
  if (count_ == 0) return std::nullopt;
  const auto& queue = queues_[static_cast<std::size_t>(current_server(now))];
  if (!queue.empty()) return std::nullopt;  // ready right now
  // Find the next window whose server has work.
  const int w = window_index(now);
  for (int step = 1; step <= servers_; ++step) {
    const int server = (((w + step) % servers_) + servers_) % servers_;
    if (!queues_[static_cast<std::size_t>(server)].empty()) {
      return static_cast<Seconds>(w + step) * window_;
    }
  }
  return std::nullopt;
}

}  // namespace iofa::agios
