#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/perf.h"

namespace aces::sim {

namespace {
constexpr std::size_t kArity = 4;
/// Total event order: earliest time first, schedule order on ties.
template <typename Key>
bool earlier(const Key& a, const Key& b) {
  return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}
}  // namespace

void Simulator::schedule_in(Seconds delay, Handler fn) {
  ACES_CHECK_MSG(delay >= 0.0, "cannot schedule into the past");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(Seconds t, Handler fn) {
  ACES_PERF_SCOPE(PerfStage::kCalendarInsert);
  ACES_CHECK_MSG(t >= now_, "cannot schedule into the past");
  if (free_.empty()) {
    handlers_.emplace_back();
    free_.push_back(handlers_.size() - 1);
  }
  const std::size_t slot = free_.back();
  free_.pop_back();
  handlers_[slot] = std::move(fn);
  // Sift up through a hole. A new key never precedes an equal-time parent
  // (its seq is the largest yet), so ties keep schedule order.
  const Key key{t, next_seq_++, slot};
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0 && earlier(key, heap_[(i - 1) / kArity])) {
    heap_[i] = heap_[(i - 1) / kArity];
    i = (i - 1) / kArity;
  }
  heap_[i] = key;
}

void Simulator::run_next() {
  Key top{};
  {
    ACES_PERF_SCOPE(PerfStage::kCalendarDrain);
    top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    // Sift the former last key down from the root through a hole.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (kArity * i + 1 < n) {
      const std::size_t first = kArity * i + 1;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < std::min(first + kArity, n); ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    if (n > 0) heap_[i] = last;
  }
  // Move the handler out before running it, so it may reuse its own slot.
  Handler fn = std::move(handlers_[top.slot]);
  free_.push_back(top.slot);
  now_ = top.time;
  ++executed_;
  fn();
}

void Simulator::run_until(Seconds end) {
  ACES_CHECK_MSG(end >= now_, "cannot run backwards");
  while (!heap_.empty() && heap_.front().time <= end) run_next();
  now_ = end;
}

void Simulator::run_all() {
  while (!heap_.empty()) run_next();
}

}  // namespace aces::sim
