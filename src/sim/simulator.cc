#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/perf.h"

namespace aces::sim {

namespace {
constexpr std::size_t kArity = 4;
constexpr std::size_t kMinLaneRing = 16;
/// Total event order: earliest time first, schedule order on ties.
template <typename A, typename B>
bool earlier(const A& a, const B& b) {
  return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}
}  // namespace

std::size_t Simulator::pending() const {
  std::size_t n = heap_.size();
  for (const DelayLane& lane : lanes_) n += lane.size;
  return n;
}

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

Simulator::Lane Simulator::lane(Seconds delay) {
  ACES_CHECK_MSG(std::isfinite(delay) && delay >= 0.0,
                 "lane delay must be finite and non-negative, got " << delay);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].delay == delay) return Lane{i};
  }
  lanes_.push_back(DelayLane{delay, {}, 0, 0});
  return Lane{lanes_.size() - 1};
}

void Simulator::schedule_on(Lane handle, Handler fn) {
  ACES_PERF_SCOPE(PerfStage::kCalendarInsert);
  DelayLane& lane = lanes_[handle.index];
  if (lane.size == lane.ring.size()) {
    // Full: unroll into a ring twice the size, oldest event first.
    std::vector<LaneEvent> ring(std::max(kMinLaneRing, 2 * lane.ring.size()));
    for (std::size_t i = 0; i < lane.size; ++i) {
      ring[i] = std::move(lane.ring[(lane.head + i) & (lane.ring.size() - 1)]);
    }
    lane.ring = std::move(ring);
    lane.head = 0;
  }
  // The clock never goes back and seq only grows, so the new event sorts
  // after every event already in the lane.
  LaneEvent& event =
      lane.ring[(lane.head + lane.size) & (lane.ring.size() - 1)];
  event.time = now_ + lane.delay;
  event.seq = next_seq_++;
  event.fn = std::move(fn);
  ++lane.size;
}

bool Simulator::run_next(Seconds end) {
  Seconds time = 0.0;
  Handler fn;
  {
    ACES_PERF_SCOPE(PerfStage::kCalendarDrain);
    // The earliest of the heap top and the lane heads.
    const Key* top = heap_.empty() ? nullptr : &heap_.front();
    DelayLane* from = nullptr;
    for (DelayLane& lane : lanes_) {
      if (lane.size == 0) continue;
      const LaneEvent& head = lane.ring[lane.head];
      if (from != nullptr ? earlier(head, from->ring[from->head])
                          : top == nullptr || earlier(head, *top)) {
        from = &lane;
      }
    }
    if (from != nullptr) {
      LaneEvent& head = from->ring[from->head];
      if (head.time > end) return false;
      time = head.time;
      // Move the handler out and pop before running it, so it may push onto
      // its own lane, even into a full ring.
      fn = std::move(head.fn);
      from->head = (from->head + 1) & (from->ring.size() - 1);
      --from->size;
    } else {
      if (top == nullptr || top->time > end) return false;
      const Key first = *top;
      const Key last = heap_.back();
      heap_.pop_back();
      // Sift the former last key down from the root through a hole.
      const std::size_t n = heap_.size();
      std::size_t i = 0;
      while (kArity * i + 1 < n) {
        const std::size_t child = kArity * i + 1;
        std::size_t best = child;
        for (std::size_t c = child + 1; c < std::min(child + kArity, n); ++c) {
          if (earlier(heap_[c], heap_[best])) best = c;
        }
        if (!earlier(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      if (n > 0) heap_[i] = last;
      time = first.time;
      // Move the handler out before running it, so it may reuse its own
      // slot.
      fn = std::move(handlers_[first.slot]);
      free_.push_back(first.slot);
    }
  }
  now_ = time;
  ++executed_;
  fn();
  return true;
}

void Simulator::run_until(Seconds end) {
  ACES_CHECK_MSG(end >= now_, "cannot run backwards");
  while (run_next(end)) {
  }
  now_ = end;
}

void Simulator::run_all() {
  while (run_next(std::numeric_limits<Seconds>::infinity())) {
  }
}

}  // namespace aces::sim
