// Discrete-event simulation engine: a from-scratch replacement for the
// C-SIM library the paper used. A monotone virtual clock and a time-ordered
// event set of callbacks; ties in time break by insertion order.
//
// The event set has two parts, merged on every pop by (time, seq):
//  - A 4-ary min-heap of 24-byte {time, seq, slot} keys, for events at
//    arbitrary times. The handlers (aces::InlineFunction, no allocation for
//    captures up to kHandlerCapacity bytes) stay put in a slab with a free
//    list. It replaced a calendar queue whose bucket width, fitted to the
//    span of all pending events, was stretched by far-future completions
//    until each pop scanned about 50 events.
//  - Delay lanes: one FIFO ring per constant delay. The clock never goes
//    back and seq only grows, so events scheduled a fixed delay ahead are
//    produced already in (time, seq) order and a FIFO keeps them sorted
//    with no sift. The stream simulation sends its SDO deliveries,
//    advertisement landings and tick re-arms (about half of all events)
//    through three lanes.
// Both parts draw seq from one counter, so the execution order is exactly
// that of a single heap.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/types.h"

namespace aces::sim {

/// The simulation kernel. Handlers scheduled with schedule_in/schedule_at/
/// schedule_on run in nondecreasing time order; a handler may schedule
/// further events.
class Simulator {
 public:
  /// Inline storage for event handlers; the largest simulation capture
  /// (this + a small POD clause) is well under this.
  static constexpr std::size_t kHandlerCapacity = 64;
  using Handler = InlineFunction<kHandlerCapacity>;

  /// Names a delay lane; obtained from lane().
  struct Lane {
    std::size_t index = 0;
  };

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Schedules `fn` `delay` seconds from now (delay >= 0).
  void schedule_in(Seconds delay, Handler fn);
  /// Schedules `fn` at absolute time `t` (t >= now()).
  void schedule_at(Seconds t, Handler fn);

  /// The lane of events scheduled `delay` seconds ahead (finite, >= 0).
  /// Calls with the same delay return the same lane.
  Lane lane(Seconds delay);
  /// Schedules `fn` the lane's delay from now: the same time and the same
  /// place in the event order as schedule_in() with that delay.
  void schedule_on(Lane lane, Handler fn);

  /// Runs events with time <= `end`, then advances the clock to `end`.
  void run_until(Seconds end);
  /// Runs until the queue drains.
  void run_all();

 private:
  /// Heap entry; (time, seq) is a total order. `slot` indexes handlers_.
  struct Key {
    Seconds time;
    std::uint64_t seq;
    std::size_t slot;
  };
  /// Lane entry: the handler travels with its key.
  struct LaneEvent {
    Seconds time = 0.0;
    std::uint64_t seq = 0;
    Handler fn;
  };
  /// FIFO ring of events `delay` ahead, sorted by (time, seq) on entry.
  struct DelayLane {
    Seconds delay;
    std::vector<LaneEvent> ring;  // power-of-two size
    std::size_t head = 0;
    std::size_t size = 0;
  };

  /// Runs the earliest pending event if its time is <= `end`; returns
  /// false, running nothing, otherwise.
  bool run_next(Seconds end);

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;            // 4-ary min-heap by (time, seq)
  std::vector<Handler> handlers_;    // slab indexed by Key::slot
  std::vector<std::size_t> free_;    // vacant handler slots
  std::vector<DelayLane> lanes_;
};

}  // namespace aces::sim
