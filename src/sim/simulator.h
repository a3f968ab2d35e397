// Discrete-event simulation engine: a from-scratch replacement for the
// C-SIM library the paper used. A monotone virtual clock and a time-ordered
// event set of callbacks; ties in time break by insertion order.
//
// The event set is a 4-ary min-heap of 24-byte {time, seq, slot} keys; the
// handlers (aces::InlineFunction, no allocation for captures up to
// kHandlerCapacity bytes) stay put in a slab with a free list. It replaced
// a calendar queue whose bucket width, fitted to the span of all pending
// events, was stretched by far-future completions until each pop scanned
// about 50 events.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/types.h"

namespace aces::sim {

/// The simulation kernel. Handlers scheduled with schedule_in/schedule_at
/// run in nondecreasing time order; a handler may schedule further events.
class Simulator {
 public:
  /// Inline storage for event handlers; the largest simulation capture
  /// (this + a small POD clause) is well under this.
  static constexpr std::size_t kHandlerCapacity = 64;
  using Handler = InlineFunction<kHandlerCapacity>;

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Schedules `fn` `delay` seconds from now (delay >= 0).
  void schedule_in(Seconds delay, Handler fn);
  /// Schedules `fn` at absolute time `t` (t >= now()).
  void schedule_at(Seconds t, Handler fn);

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

  /// Pops the earliest pending event, frees its slot and runs it.
  void run_next();

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;            // 4-ary min-heap by (time, seq)
  std::vector<Handler> handlers_;    // slab indexed by Key::slot
  std::vector<std::size_t> free_;    // vacant handler slots
};

}  // namespace aces::sim
