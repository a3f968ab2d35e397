#include "sim/simulator.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"

namespace aces::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> trace;
  sim.schedule_in(3.0, [&] { trace.push_back(3); });
  sim.schedule_in(1.0, [&] { trace.push_back(1); });
  sim.schedule_in(2.0, [&] { trace.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> trace;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(1.0, [&trace, i] { trace.push_back(i); });
  sim.run_until(1.0);
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockReadsEventTimeDuringHandler) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_in(2.5, [&] { seen = sim.now(); });
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // advances to the horizon
}

TEST(SimulatorTest, RunUntilLeavesFutureEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(9.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(9.0);  // boundary events (time == end) run
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<double> times;
  // A self-rescheduling ticker.
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 4) sim.schedule_in(1.0, tick);
  };
  sim.schedule_in(1.0, tick);
  sim.run_until(10.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(SimulatorTest, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), CheckFailure);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), CheckFailure);
  EXPECT_THROW(sim.run_until(4.0), CheckFailure);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  sim.run_until(2.0);
  bool fired = false;
  sim.schedule_in(0.0, [&] { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunAllDrainsEverything) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] {
    ++fired;
    sim.schedule_in(100.0, [&] { ++fired; });
  });
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 101.0);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = (i * 7919) % 1000 / 10.0;
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run_all();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed(), 10000u);
}

// The remaining tests were written against the calendar queue the heap
// replaced (duplicate timestamps across rebuilds, far-future jumps, bucket
// boundaries, tiny bucket widths). They stay as ordering tests: any event
// set must pass them.

TEST(SimulatorTest, DuplicateTimestampsKeepScheduleOrderAcrossRebuilds) {
  Simulator sim;
  std::vector<int> trace;
  // Hundreds of events at only 3 distinct times, scheduled in a shuffled
  // pattern, so most comparisons are ties broken by schedule order.
  for (int i = 0; i < 600; ++i) {
    const double t = static_cast<double>((i * 7) % 3);
    sim.schedule_at(t, [&trace, i] { trace.push_back(i); });
  }
  sim.run_all();
  ASSERT_EQ(trace.size(), 600u);
  // Within each timestamp, events run in schedule order (seq order).
  std::vector<int> last_at_time(3, -1);
  for (const int i : trace) {
    const int t = (i * 7) % 3;
    EXPECT_LT(last_at_time[t], i);
    last_at_time[t] = i;
  }
}

TEST(SimulatorTest, FarFutureJumpThenBackfillStaysOrdered) {
  Simulator sim;
  std::vector<double> times;
  const auto record = [&] { times.push_back(sim.now()); };
  sim.schedule_at(1e6, record);   // far beyond everything else pending
  sim.schedule_at(0.001, record); // backfill near now
  sim.schedule_at(999.0, record);
  sim.schedule_at(1e-9, record);
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{1e-9, 0.001, 999.0, 1e6}));
}

TEST(SimulatorTest, HandlersSchedulingAcrossBucketBoundaries) {
  Simulator sim;
  // A single pending event at a time, each hop far ahead of the last: the
  // set empties and refills on every step.
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 50) sim.schedule_in(97.3, hop);
  };
  sim.schedule_in(0.1, hop);
  sim.run_all();
  EXPECT_EQ(hops, 50);
  EXPECT_DOUBLE_EQ(sim.now(), 0.1 + 49 * 97.3);
}

TEST(SimulatorTest, InterleavedScheduleAndRunKeepsGlobalOrder) {
  Simulator sim;
  std::vector<double> times;
  std::uint64_t rng = 12345;
  const auto record = [&] { times.push_back(sim.now()); };
  double horizon = 0.0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const double dt = static_cast<double>(rng >> 40) / (1ULL << 20);
      sim.schedule_in(dt * 16.0, record);
    }
    horizon += 3.0;
    sim.run_until(horizon);
  }
  sim.run_all();
  ASSERT_EQ(times.size(), 2000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]) << "out of order at " << i;
  }
}

TEST(SimulatorTest, TinyTimeScaleDoesNotOverflowDayIndex) {
  Simulator sim;
  // All events nanoseconds apart, scheduled in reverse time order.
  std::vector<double> times;
  for (int i = 100; i > 0; --i) {
    sim.schedule_at(static_cast<double>(i) * 1e-9,
                    [&] { times.push_back(sim.now()); });
  }
  sim.run_all();
  ASSERT_EQ(times.size(), 100u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]);
  }
}

// Reference event set: a flat list searched for the least (time, seq) on
// every pop. Slow and obviously correct.
class ReferenceSimulator {
 public:
  [[nodiscard]] Seconds now() const { return now_; }
  void schedule_in(Seconds delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  void schedule_at(Seconds t, std::function<void()> fn) {
    events_.push_back(Event{t, next_seq_++, std::move(fn)});
  }
  /// A lane is just its delay here.
  Seconds lane(Seconds delay) { return delay; }
  void schedule_on(Seconds delay, std::function<void()> fn) {
    schedule_in(delay, std::move(fn));
  }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }
  void run_until(Seconds end) {
    while (!events_.empty()) {
      const auto it = earliest();
      if (it->time > end) break;
      pop_and_run(it);
    }
    now_ = end;
  }
  void run_all() {
    while (!events_.empty()) pop_and_run(earliest());
  }

 private:
  struct Event {
    Seconds time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<Event>::iterator earliest() {
    auto best = events_.begin();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->time < best->time ||
          (it->time == best->time && it->seq < best->seq)) {
        best = it;
      }
    }
    return best;
  }
  void pop_and_run(std::vector<Event>::iterator it) {
    Event event = std::move(*it);
    events_.erase(it);
    now_ = event.time;
    event.fn();
  }

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> events_;
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Drives `sim` through a seeded workload in the simulation's delay mix and
/// returns every executed event as (time, id). Each event's children and
/// their delays are a function of its id alone, so any correct event set
/// produces the same sequence.
template <typename Sim>
std::vector<std::pair<double, int>> drive(Sim& sim, std::uint64_t seed) {
  constexpr int kEvents = 6000;
  constexpr double kTick = 0.01;
  std::vector<std::pair<double, int>> out;
  int next_id = 0;
  std::function<void(int)> schedule_children;
  // The handler of event `id`: record it, then schedule its children.
  const auto event = [&sim, &out, &schedule_children](int id) {
    return [&sim, &out, &schedule_children, id] {
      out.emplace_back(sim.now(), id);
      schedule_children(id);
    };
  };
  schedule_children = [&](int id) {
    std::uint64_t h = mix64(seed ^ static_cast<std::uint64_t>(id));
    const int children = (h & 3) == 0 ? 2 : 1;
    for (int c = 0; c < children && next_id < kEvents; ++c) {
      h = mix64(h);
      const auto run = event(next_id++);
      switch ((h >> 8) % 6) {
        case 0: sim.schedule_in(0.0, run); break;       // same instant
        case 1: sim.schedule_in(0.5e-3, run); break;    // link latency
        case 2: sim.schedule_in(kTick, run); break;     // control tick
        case 3:                                         // exponential gap
          sim.schedule_in(-std::log1p(-unit(mix64(h))) * 75e-6, run);
          break;
        case 4:  // exact tie: the next tick boundary, shared by many events
          sim.schedule_at((std::floor(sim.now() / kTick) + 1.0) * kTick, run);
          break;
        default:  // far future
          sim.schedule_in(5.0 + 50.0 * unit(mix64(h)), run);
          break;
      }
    }
  };
  for (int i = 0; i < 300; ++i) {
    sim.schedule_at(0.001 * (i % 37), event(next_id++));
  }
  for (double horizon = 0.25; horizon < 2.0; horizon += 0.25) {
    sim.run_until(horizon);
  }
  sim.run_all();
  return out;
}

TEST(SimulatorTest, MatchesReferenceOrderOnSimulationDelayMix) {
  for (const std::uint64_t seed : {1u, 9u, 77u}) {
    Simulator sim;
    ReferenceSimulator reference;
    const auto got = drive(sim, seed);
    const auto want = drive(reference, seed);
    ASSERT_EQ(got.size(), 6000u) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " event " << i;
    }
    EXPECT_EQ(sim.executed(), got.size());
    EXPECT_EQ(sim.pending(), 0u);
  }
}

/// Like drive(), but most constant delays go through delay lanes: a
/// zero-delay lane, a link lane with a second handle to it (equal delay),
/// and a tick lane; the same link delay also goes to the heap, so lane and
/// heap events tie in time. A ticker on the tick lane lands exactly on
/// every run_until() slice end. Returns the executed (time, id) sequence;
/// `pending` gets the pending count after each slice.
template <typename Sim>
std::vector<std::pair<double, int>> drive_lanes(
    Sim& sim, std::uint64_t seed, std::vector<std::size_t>& pending) {
  constexpr int kEvents = 6000;
  constexpr double kTick = 0.01;
  constexpr int kTicksPerSlice = 25;
  constexpr int kSlices = 8;
  const auto zero = sim.lane(0.0);
  const auto link = sim.lane(0.5e-3);
  const auto tick = sim.lane(kTick);
  const auto link_again = sim.lane(0.5e-3);
  std::vector<std::pair<double, int>> out;
  int next_id = 0;
  std::function<void(int)> schedule_children;
  const auto event = [&sim, &out, &schedule_children](int id) {
    return [&sim, &out, &schedule_children, id] {
      out.emplace_back(sim.now(), id);
      schedule_children(id);
    };
  };
  schedule_children = [&](int id) {
    std::uint64_t h = mix64(seed ^ static_cast<std::uint64_t>(id));
    const int children = (h & 3) == 0 ? 2 : 1;
    for (int c = 0; c < children && next_id < kEvents; ++c) {
      h = mix64(h);
      const auto run = event(next_id++);
      switch ((h >> 8) % 8) {
        case 0: sim.schedule_on(zero, run); break;
        case 1: sim.schedule_on(link, run); break;
        case 2: sim.schedule_on(link_again, run); break;
        case 3: sim.schedule_in(0.5e-3, run); break;  // ties the link lane
        case 4: sim.schedule_on(tick, run); break;
        case 5:  // exact tie: the next tick boundary
          sim.schedule_at((std::floor(sim.now() / kTick) + 1.0) * kTick, run);
          break;
        case 6:
          sim.schedule_in(-std::log1p(-unit(mix64(h))) * 75e-6, run);
          break;
        default: sim.schedule_in(5.0 + 50.0 * unit(mix64(h)), run); break;
      }
    }
  };
  // The ticker's times are 0 + kTick + kTick + ..., summed like the slice
  // ends below, so each slice ends exactly on a ticker event.
  int ticks = 0;
  std::function<void()> ticker = [&] {
    out.emplace_back(sim.now(), -1);
    if (++ticks < kTicksPerSlice * kSlices) sim.schedule_on(tick, ticker);
  };
  sim.schedule_on(tick, ticker);
  for (int i = 0; i < 300; ++i) {
    sim.schedule_at(0.001 * (i % 37), event(next_id++));
  }
  double end = 0.0;
  for (int slice = 0; slice < kSlices; ++slice) {
    for (int k = 0; k < kTicksPerSlice; ++k) end += kTick;
    sim.run_until(end);
    pending.push_back(sim.pending());
  }
  sim.run_all();
  pending.push_back(sim.pending());
  return out;
}

TEST(SimulatorTest, LanesAndHeapMatchReferenceOrder) {
  for (const std::uint64_t seed : {1u, 9u, 77u}) {
    Simulator sim;
    ReferenceSimulator reference;
    std::vector<std::size_t> got_pending;
    std::vector<std::size_t> want_pending;
    const auto got = drive_lanes(sim, seed, got_pending);
    const auto want = drive_lanes(reference, seed, want_pending);
    ASSERT_EQ(got.size(), 6000u + 200u) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " event " << i;
    }
    EXPECT_EQ(got_pending, want_pending) << "seed " << seed;
    EXPECT_EQ(sim.executed(), got.size());
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(SimulatorTest, LanesAreDeduplicatedByDelay) {
  Simulator sim;
  const Simulator::Lane a = sim.lane(2e-3);
  const Simulator::Lane b = sim.lane(0.1);
  EXPECT_EQ(sim.lane(2e-3).index, a.index);
  EXPECT_EQ(sim.lane(0.1).index, b.index);
  EXPECT_NE(a.index, b.index);
}

TEST(SimulatorTest, PendingCountsLaneEvents) {
  Simulator sim;
  const Simulator::Lane lane = sim.lane(1.0);
  sim.schedule_on(lane, [] {});
  sim.schedule_on(lane, [] {});
  sim.schedule_in(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_until(1.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulatorTest, LaneRejectsNegativeAndNonFiniteDelays) {
  Simulator sim;
  EXPECT_THROW(sim.lane(-1e-9), CheckFailure);
  EXPECT_THROW(sim.lane(std::numeric_limits<double>::infinity()),
               CheckFailure);
  EXPECT_THROW(sim.lane(std::numeric_limits<double>::quiet_NaN()),
               CheckFailure);
  EXPECT_NO_THROW(sim.lane(0.0));
}

TEST(SimulatorTest, HandlerGrowingItsOwnFullLaneKeepsItsCaptures) {
  Simulator sim;
  const Simulator::Lane lane = sim.lane(1.0);
  std::vector<std::uint64_t> seen;
  const std::array<std::uint64_t, 5> payload{11, 22, 33, 44, 55};
  // 32 events fill the lane's ring exactly. The first one, while it runs,
  // refills the slot it was popped from and then grows the ring many times
  // over; its captures (the full 64-byte handler capacity) must survive.
  constexpr std::uint64_t kQueued = 31;
  constexpr std::uint64_t kPushed = 1000;
  sim.schedule_on(lane, [&sim, &seen, lane, payload] {
    for (std::uint64_t i = 0; i < kPushed; ++i) {
      sim.schedule_on(lane, [&seen, i] { seen.push_back(1000 + i); });
    }
    for (const std::uint64_t v : payload) seen.push_back(v);
  });
  for (std::uint64_t i = 0; i < kQueued; ++i) {
    sim.schedule_on(lane, [&seen, i] { seen.push_back(100 + i); });
  }
  sim.run_all();
  std::vector<std::uint64_t> want(payload.begin(), payload.end());
  for (std::uint64_t i = 0; i < kQueued; ++i) want.push_back(100 + i);
  for (std::uint64_t i = 0; i < kPushed; ++i) want.push_back(1000 + i);
  EXPECT_EQ(seen, want);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, HandlerReusingItsOwnSlotKeepsItsCaptures) {
  Simulator sim;
  std::vector<std::uint64_t> seen;
  const std::array<std::uint64_t, 6> payload{11, 22, 33, 44, 55, 66};
  sim.schedule_at(1.0, [&sim, &seen, payload] {
    // The only pending event: its slot is the free one, so this lands in
    // the slot the running handler was moved out of.
    sim.schedule_in(1.0, [&seen] { seen.push_back(99); });
    sim.schedule_in(2.0, [&seen] { seen.push_back(100); });
    for (const std::uint64_t v : payload) seen.push_back(v);
  });
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{11, 22, 33, 44, 55, 66, 99,
                                              100}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

}  // namespace
}  // namespace aces::sim
