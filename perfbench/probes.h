// Layer probes of the traced run (see probes.cc).
#pragma once

#include <cstdint>

#include "bench.h"
#include "graph/processing_graph.h"
#include "metrics/run_report.h"
#include "opt/global_optimizer.h"
#include "sim/stream_simulation.h"

namespace perfbench {

/// Microseconds per NodeController::tick over every node of `g`.
double probe_control_tick_us(const aces::graph::ProcessingGraph& g,
                             const aces::opt::AllocationPlan& plan,
                             double budget_s);

/// Nanoseconds per next_interarrival() draw of `g`'s arrival processes.
double probe_arrival_ns(const aces::graph::ProcessingGraph& g,
                        std::uint64_t seed, double budget_s);

/// Event load of one stream simulation, measured from its report.
struct EventLoad {
  double population = 0.0;  ///< mean pending events
  double mean_gap = 0.0;    ///< mean time an event is pending, virtual s
};
/// The event load of `report`, a sim::simulate run of `g` with `options`.
/// Pending at any time: one arrival per stream, one tick per node, at most
/// one completion per PE, and the deliveries in flight, which Little's law
/// gives as the measured per-edge send rate times the edge's latency. The
/// measured event count fixes the gap: events = population × duration /
/// gap.
EventLoad sim_event_load(const aces::graph::ProcessingGraph& g,
                         const aces::metrics::RunReport& report,
                         const aces::sim::SimOptions& options);

/// Nanoseconds per event of sim::Simulator in a hold model at `load`.
double probe_calendar_ns(const EventLoad& load, std::uint64_t seed,
                         double budget_s);

/// Nanoseconds per item through an SpscRing between two threads, moved
/// with try_push_n / pop_burst at batch 8.
double probe_ring_ns_per_sdo(double budget_s);

/// Frame contents per shard and quantum, as the distributed runtime sends
/// them.
struct FrameLoad {
  std::size_t deliveries = 0;   ///< cross-node SDOs in a StepDone / StepGo
  std::size_t done_adverts = 0; ///< adverts a shard refreshes
  std::size_t go_adverts = 0;   ///< adverts of every shard, broadcast
};

struct WireCost {
  double encode_ns = 0.0;  ///< per frame, mean over StepGo/StepDone/Metrics
  double decode_ns = 0.0;  ///< per frame, parse_frame + decode_*
  std::size_t go_bytes = 0;
  std::size_t done_bytes = 0;
  std::size_t report_bytes = 0;
  bool ok = false;
};
/// wire codec cost of StepGo, StepDone and MetricsReport frames at `load`.
WireCost probe_wire(const FrameLoad& load, double budget_s);

struct RoundTrip {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
  bool ok = false;
};
/// Heartbeat ping-pong over an in-process Endpoint pair: the VM's thread
/// wake latency as the distributed runtime's barrier sees it.
RoundTrip probe_inproc_rtt(double budget_s);

}  // namespace perfbench
