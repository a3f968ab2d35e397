// The per-PE logic every engine shares: the discrete-event simulator
// (sim/stream_simulation.cc), the wall-paced threaded runtime
// (runtime/runtime_engine.cc) and the barrier-stepped distributed workers
// (runtime/dist_worker.cc).
//
// An engine decides how time advances (calendar events, a paced thread
// loop, barrier quanta) and how SDOs and advertisements move (scheduled
// events, rings and the bus, wire outboxes — Lock-Step blocking included).
// Everything a PE does around those moves is written here once:
//  * the controller tick: input assembly with the per-slot staleness clamp,
//    the TickRecord, the collector's CPU and buffer samples and the reset
//    of the per-interval counters (node_tick);
//  * a completion: selectivity credit, egress accounting, span emit and
//    complete, and the fan-out through the engine's send (complete);
//  * the fluid service of the runtimes, which advance in steps rather
//    than by completion events (serve);
//  * a node crash: the lost-SDO count, span drops and state reset
//    (crash_pe);
//  * the run-level helpers the engines set up with (count_egress,
//    fault_drops_delivery, fork_pe_streams, make_source).
//
// The per-SDO paths are templates over the engine's SDO record, collector
// and send, so they inline: no std::function or virtual call per SDO.
// docs/architecture.md ("PE kernel") lists what each engine keeps.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "control/node_controller.h"
#include "fault/fault_injector.h"
#include "graph/processing_graph.h"
#include "obs/perf.h"
#include "obs/scoped_timer.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "workload/arrivals.h"
#include "workload/markov_modulator.h"

namespace aces::sim::kernel {

/// The state every engine keeps for one PE. `Sdo` is the engine's SDO
/// record; it has at least `birth` and `span` members.
template <class Sdo>
struct PeCore {
  double share = 0.0;  ///< CPU fraction granted at the last tick
  bool busy = false;   ///< `current` is in service
  /// Lock-Step: asleep on a full downstream buffer (the engine sets it).
  bool blocked = false;
  Sdo current{};
  double work_remaining = 0.0;  ///< CPU-seconds left on `current`
  double selectivity_credit = 0.0;
  std::size_t egress_index = static_cast<std::size_t>(-1);
  // Interval counters: the controller's observations, reset at each tick.
  double processed = 0.0;
  double cpu_used = 0.0;
  double arrived = 0.0;
  // Lifetime accounting (never reset).
  std::uint64_t lifetime_processed = 0;
  std::uint64_t lifetime_emitted = 0;
  double lifetime_cpu = 0.0;
};

/// What a tick reads of one PE, built fresh by the engine each time the
/// kernel asks, so every value is the live one.
template <class Sdo>
struct PeView {
  PeCore<Sdo>& pe;
  /// SDOs held for the PE: queued, staged or backlogged.
  double occupancy = 0.0;
  /// The bound the buffer-fill sample is taken against.
  double capacity = 1.0;
  /// Output blocked (Lock-Step).
  bool blocked = false;
  /// SDOs lost at this PE since run start.
  std::uint64_t dropped = 0;
};

/// The latest advertisement a PE holds from one downstream consumer.
struct Advert {
  double rmax = 0.0;
  Seconds time = 0.0;  ///< last refresh (run start counts as fresh)
};

/// Per-engine constants of a controller tick.
struct TickEnv {
  const graph::ProcessingGraph* graph = nullptr;
  Seconds dt = 0.1;
  const fault::FaultInjector* injector = nullptr;  ///< null: no faults
  obs::ControlTraceRecorder* trace = nullptr;      ///< null: untraced
  obs::PhaseProfiler* profiler = nullptr;          ///< null: unprofiled
};

/// The staleness window the tick applies: the configured timeout under the
/// policies that propagate advertisements (ACES, Threshold); 0, never
/// stale, under UDP and Lock-Step, whose controllers ignore downstream
/// r_max. Without the gate their never-refreshed slots would read stale.
[[nodiscard]] Seconds staleness_window(const control::ControllerConfig& c);

/// Input for one PE. `advert(slot)` reads the advertisement of downstream
/// slot `slot`; a consumer silent past `staleness` reads as r_max = 0 in
/// the Eq. 8 max, so one live consumer still governs.
template <class Sdo, class AdvertOf>
control::PeTickInput tick_input(const PeView<Sdo>& v, std::size_t fanout,
                                Seconds now, Seconds staleness,
                                AdvertOf&& advert) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  control::PeTickInput in;
  in.buffer_occupancy = v.occupancy;
  in.processed_sdos = v.pe.processed;
  in.cpu_seconds_used = v.pe.cpu_used;
  in.arrived_sdos = v.pe.arrived;
  in.output_blocked = v.blocked;
  if (fanout == 0) {
    in.downstream_rmax = kInf;  // egress: unconstrained (Eq. 8 vacuous)
    return in;
  }
  in.downstream_rmax = -kInf;
  Seconds freshest = -kInf;
  for (std::size_t slot = 0; slot < fanout; ++slot) {
    const Advert a = advert(slot);
    const bool stale = staleness > 0.0 && now - a.time > staleness;
    in.downstream_rmax = std::max(in.downstream_rmax, stale ? 0.0 : a.rmax);
    freshest = std::max(freshest, a.time);
  }
  in.downstream_advert_age = now - freshest;
  return in;
}

/// The trace record of one PE's tick. `cpu_share` is the share the PE
/// actually gets: 0 while it is stalled.
[[nodiscard]] obs::TickRecord tick_record(
    const control::NodeController& controller, std::size_t local_index,
    Seconds now, const control::PeTickInput& in,
    const control::PeTickOutput& out, std::uint64_t dropped, bool stalled,
    Seconds staleness, bool has_downstream);

/// One controller tick of `controller`'s node at time `now`. `view(i)`
/// returns a PeView of local PE i (pes_on_node() order), `advert(i, slot)`
/// its advertisement from downstream slot `slot`, and `apply(i, out)` hands
/// the decision back to the engine — granting the share and publishing the
/// advertisement are transport — after the kernel has traced, sampled and
/// reset that PE.
template <class Collector, class ViewOf, class AdvertOf, class Apply>
void node_tick(control::NodeController& controller, Seconds now,
               const TickEnv& env, Collector& collector, ViewOf&& view,
               AdvertOf&& advert, Apply&& apply) {
  const auto& local = controller.local_pes();
  const Seconds staleness = staleness_window(controller.config());
  std::vector<control::PeTickInput> inputs;
  inputs.reserve(local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    inputs.push_back(tick_input(
        view(i), env.graph->downstream(local[i]).size(), now, staleness,
        [&](std::size_t slot) { return advert(i, slot); }));
  }
  std::vector<control::PeTickOutput> outputs;
  {
    obs::ScopedTimer timer(env.profiler, obs::kPhaseControllerTick);
    ACES_PERF_SCOPE(PerfStage::kControllerTick);
    outputs = controller.tick(env.dt, inputs);
  }
  for (std::size_t i = 0; i < local.size(); ++i) {
    const auto v = view(i);
    if (env.trace != nullptr) {
      const bool stalled = env.injector != nullptr &&
                           env.injector->pe_stalled(local[i], now);
      env.trace->record(tick_record(
          controller, i, now, inputs[i], outputs[i], v.dropped, stalled,
          staleness, !env.graph->downstream(local[i]).empty()));
    }
    collector.on_cpu_used(now, v.pe.cpu_used);
    // Clamped: a runtime's staged SDOs can push the instantaneous count
    // past the bound.
    collector.on_buffer_sample(now, std::min(1.0, v.occupancy / v.capacity));
    v.pe.processed = v.pe.cpu_used = v.pe.arrived = 0.0;
    apply(i, outputs[i]);
  }
}

/// Finishes the SDO `pe` (PE `id`) just paid for, at time `now`: realises
/// the fractional selectivity with a carried credit, accounts egress
/// output, and hands each downstream copy to `send(slot, sdo)`. The span
/// continues into the first copy only, keeping each trace one root-to-sink
/// path; an egress or fully absorbed SDO completes its span here.
template <class Sdo, class Collector, class Send>
void complete(PeCore<Sdo>& pe, const graph::ProcessingGraph& g, PeId id,
              Collector& collector, obs::SpanTracer* spans, Seconds now,
              Send&& send) {
  pe.busy = false;
  pe.processed += 1.0;
  ++pe.lifetime_processed;
  collector.on_processed(now, 1);
  const auto& d = g.pe(id);
  pe.selectivity_credit += d.selectivity;
  const int outputs = static_cast<int>(std::floor(pe.selectivity_credit));
  pe.selectivity_credit -= outputs;
  if (spans != nullptr) spans->on_emit(pe.current.span, now);
  if (d.kind == graph::PeKind::kEgress) {
    pe.lifetime_emitted += static_cast<std::uint64_t>(outputs);
    for (int k = 0; k < outputs; ++k) {
      collector.on_egress_output(now, pe.egress_index, d.weight,
                                 now - pe.current.birth);
    }
    if (spans != nullptr) spans->complete(pe.current.span, now);
    return;
  }
  if (outputs == 0) {
    if (spans != nullptr) spans->complete(pe.current.span, now);
    return;
  }
  const std::size_t fanout = g.downstream(id).size();
  Sdo copy = pe.current;
  for (std::size_t slot = 0; slot < fanout; ++slot) {
    for (int k = 0; k < outputs; ++k) {
      ++pe.lifetime_emitted;
      send(slot, copy);
      copy.span = -1;
    }
  }
}

/// CPU-seconds of work below which an SDO in service counts as done: the
/// residue of floating-point progress accounting.
inline constexpr double kWorkEps = 1e-12;

/// Fluid service for the engines that advance in steps (the threaded and
/// distributed runtimes): spends up to `budget` CPU-seconds on `pe`'s SDOs
/// in order, stopping early once the PE blocks. `start()` puts the next
/// SDO in service — sets `current`, `busy` and `work_remaining` — or
/// returns false when none is queued; `finish()` completes one.
template <class Sdo, class Start, class Finish>
void serve(PeCore<Sdo>& pe, double budget, Start&& start, Finish&& finish) {
  while (budget > 0.0 && !pe.blocked) {
    if (!pe.busy && !start()) return;
    const double spend = std::min(budget, pe.work_remaining);
    pe.work_remaining -= spend;
    pe.cpu_used += spend;
    pe.lifetime_cpu += spend;
    budget -= spend;
    if (pe.work_remaining <= kWorkEps) finish();
  }
}

/// Walks one queue a crash empties, calling `lose(sdo)` per SDO: a
/// container of SDOs or of (slot, SDO) pairs with size()/at()/clear(), or a
/// callable that drains a queue the kernel cannot walk itself.
template <class Queue, class Lose>
void drain(Queue& queue, Lose& lose) {
  if constexpr (std::is_invocable_v<Queue&, Lose&>) {
    queue(lose);
  } else {
    for (std::size_t k = 0; k < queue.size(); ++k) {
      const auto& entry = queue.at(k);
      if constexpr (requires { entry.second; }) {
        lose(entry.second);
      } else {
        lose(entry);
      }
    }
    queue.clear();
  }
}

/// A node crash takes everything `pe` holds: the SDO in service, then each
/// of `queues` in order (see drain). Their spans end as dropped, each SDO
/// counts as an internal drop, and the PE is left idle with share 0.
/// Returns the number lost; the engine adds it to its drop count.
template <class Sdo, class Collector, class... Queues>
std::uint64_t crash_pe(PeCore<Sdo>& pe, Collector& collector,
                       obs::SpanTracer* spans, Seconds now,
                       Queues&&... queues) {
  std::uint64_t lost = 0;
  auto lose = [&](const Sdo& sdo) {
    ++lost;
    if (spans != nullptr) spans->drop(sdo.span, now);
  };
  if (pe.busy) lose(pe.current);
  (drain(queues, lose), ...);
  pe.busy = false;
  pe.blocked = false;
  pe.work_remaining = 0.0;
  pe.share = 0.0;
  for (std::uint64_t k = 0; k < lost; ++k) collector.on_internal_drop(now);
  return lost;
}

/// Injected loss on a delivery into PE `pe` at time `t`: its node is down
/// or a drop burst eats it. Draws from the PE's fault sequence only when
/// the node is up.
inline bool fault_drops_delivery(fault::FaultInjector* injector,
                                 const graph::ProcessingGraph& g, PeId pe,
                                 Seconds t) {
  return injector != nullptr && (injector->node_down(g.pe(pe).node, t) ||
                                 injector->drop_delivery(pe, t));
}

[[nodiscard]] std::size_t count_egress(const graph::ProcessingGraph& g);

/// The per-PE random streams, forked from the run's master generator in
/// one fixed order: every PE's service model in id order, then every
/// ingress PE's arrival stream in id order. An engine hosting only some
/// PEs still takes them all, so placement cannot perturb any stream.
struct PeStreams {
  std::vector<workload::ServiceModel> service;  ///< indexed by PE id
  std::vector<std::pair<PeId, Rng>> ingress;    ///< ingress PEs, id order
};
[[nodiscard]] PeStreams fork_pe_streams(const graph::ProcessingGraph& g,
                                        Rng& master);

/// The arrival process feeding ingress PE `pe`: `factory`'s when set,
/// workload::make_arrival_process otherwise.
[[nodiscard]] std::unique_ptr<workload::ArrivalProcess> make_source(
    const workload::ArrivalFactory& factory, const graph::ProcessingGraph& g,
    PeId pe, Rng rng);

}  // namespace aces::sim::kernel
