// Layer probes: each one calls a single module's public functions on
// inputs sized like the workload's, from outside the module, and times
// the calls. They give the per-layer numbers of the traced run.
#include "probes.h"

#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "control/node_controller.h"
#include "runtime/spsc_ring.h"
#include "runtime/transport/inproc.h"
#include "runtime/wire.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"

namespace perfbench {

using namespace aces;

namespace {

// Repeats `batch` until `budget_s` seconds pass (at least `min_reps`
// times) and returns the median seconds per batch.
template <typename F>
double median_batch_seconds(double budget_s, int min_reps, F&& batch) {
  std::vector<double> samples;
  const double stop = now_s() + budget_s;
  while (static_cast<int>(samples.size()) < min_reps || now_s() < stop) {
    const double t0 = now_s();
    batch();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

}  // namespace

double probe_control_tick_us(const graph::ProcessingGraph& g,
                             const opt::AllocationPlan& plan,
                             double budget_s) {
  const double dt = 0.1;
  std::vector<control::NodeController> controllers;
  std::vector<std::vector<control::PeTickInput>> inputs;
  for (NodeId n : g.all_nodes()) {
    controllers.emplace_back(g, n, plan, control::ControllerConfig{});
    std::vector<control::PeTickInput> in;
    for (PeId pe : g.pes_on_node(n)) {
      control::PeTickInput x;
      x.buffer_occupancy = 0.5 * g.pe(pe).buffer_capacity;
      x.processed_sdos = plan.at(pe).rin_sdo * dt;
      x.arrived_sdos = plan.at(pe).rin_sdo * dt;
      x.cpu_seconds_used = plan.at(pe).cpu * dt;
      x.downstream_rmax = g.downstream(pe).empty()
                              ? std::numeric_limits<double>::infinity()
                              : plan.at(pe).rout_sdo;
      in.push_back(x);
    }
    inputs.push_back(std::move(in));
  }
  Rng rng(7);
  double sink = 0.0;
  constexpr int kRounds = 50;
  const double per_batch = median_batch_seconds(budget_s, 5, [&] {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < controllers.size(); ++i) {
        // Occupancy wanders so every tick sees fresh inputs.
        for (control::PeTickInput& x : inputs[i]) {
          x.buffer_occupancy = std::max(
              0.0, x.buffer_occupancy + rng.uniform(-2.0, 2.0));
        }
        const auto out = controllers[i].tick(dt, inputs[i]);
        if (!out.empty()) sink += out.front().cpu_share;
      }
    }
  });
  if (sink < 0.0) return -1.0;  // keeps the ticks observable
  return per_batch * 1e6 /
         (static_cast<double>(kRounds) *
          static_cast<double>(controllers.size()));
}

double probe_arrival_ns(const graph::ProcessingGraph& g, std::uint64_t seed,
                        double budget_s) {
  std::vector<std::unique_ptr<workload::ArrivalProcess>> processes;
  Rng root(seed);
  for (std::size_t s = 0; s < g.stream_count(); ++s) {
    const StreamId id(static_cast<StreamId::value_type>(s));
    processes.push_back(
        workload::make_arrival_process(g.stream(id), root.fork(s)));
  }
  constexpr int kDraws = 20000;
  double sink = 0.0;
  const double per_batch = median_batch_seconds(budget_s, 5, [&] {
    for (int i = 0; i < kDraws; ++i) {
      sink += processes[static_cast<std::size_t>(i) % processes.size()]
                  ->next_interarrival();
    }
  });
  if (sink < 0.0) return -1.0;
  return per_batch * 1e9 / kDraws;
}

EventLoad sim_event_load(const graph::ProcessingGraph& g,
                         const metrics::RunReport& report,
                         const sim::SimOptions& options) {
  double in_flight = 0.0;  // copy-seconds in transit over the run
  for (PeId u : g.all_pes()) {
    const auto per_edge =
        static_cast<double>(report.per_pe[u.value()].emitted) /
        static_cast<double>(std::max<std::size_t>(g.downstream(u).size(), 1));
    for (PeId v : g.downstream(u)) {
      in_flight += per_edge * (g.pe(u).node == g.pe(v).node
                                   ? options.local_latency
                                   : options.network_latency);
    }
  }
  EventLoad load;
  load.population =
      static_cast<double>(g.stream_count() + g.node_count() + g.pe_count()) +
      in_flight / options.duration;
  load.mean_gap = load.population * options.duration /
                  static_cast<double>(
                      std::max<std::uint64_t>(report.events_executed, 1));
  return load;
}

double probe_calendar_ns(const EventLoad& load, std::uint64_t seed,
                         double budget_s) {
  // Hold model: every executed event schedules one successor a random
  // exponential delay ahead, so the pending population stays constant.
  struct Hold {
    sim::Simulator* sim;
    Rng rng;
    double mean_gap;
    void fire() {
      Hold* self = this;
      sim->schedule_in(rng.exponential(mean_gap), [self] { self->fire(); });
    }
  };
  constexpr std::uint64_t kEvents = 200000;
  const auto population =
      static_cast<std::size_t>(std::llround(load.population));
  std::uint64_t executed = 0;
  const double per_batch = median_batch_seconds(budget_s, 3, [&] {
    sim::Simulator sim;
    Hold hold{&sim, Rng(seed), load.mean_gap};
    for (std::size_t i = 0; i < population; ++i) {
      Hold* h = &hold;
      sim.schedule_at(hold.rng.uniform(0.0, hold.mean_gap),
                      [h] { h->fire(); });
    }
    const double horizon = static_cast<double>(kEvents) * hold.mean_gap /
                           static_cast<double>(population);
    sim.run_until(horizon);
    executed = sim.executed();
  });
  return per_batch * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                               executed, 1));
}

double probe_ring_ns_per_sdo(double budget_s) {
  struct Item {
    double birth = 0.0;
    std::int32_t span = -1;
  };
  static constexpr std::size_t kBatch = 8;
  static constexpr std::size_t kItems = 1u << 20;
  return median_batch_seconds(budget_s, 3, [&] {
           runtime::SpscRing<Item> ring(64);
           std::thread producer([&ring] {
             Item batch[kBatch];
             std::size_t sent = 0;
             while (sent < kItems) {
               const std::size_t n = std::min(kBatch, kItems - sent);
               for (std::size_t i = 0; i < n; ++i) {
                 batch[i].birth = static_cast<double>(sent + i);
               }
               std::size_t done = 0;
               while (done < n) done += ring.try_push_n(batch + done, n - done);
               sent += n;
             }
           });
           Item out[kBatch];
           std::size_t received = 0;
           double sink = 0.0;
           while (received < kItems) {
             const std::size_t k = ring.pop_burst(out, kBatch);
             for (std::size_t i = 0; i < k; ++i) sink += out[i].birth;
             received += k;
           }
           producer.join();
           if (sink < 0.0) received = 0;
         }) *
         1e9 / static_cast<double>(kItems);
}

WireCost probe_wire(const FrameLoad& load, double budget_s) {
  Rng rng(11);
  runtime::wire::StepGo go;
  runtime::wire::StepDone done;
  for (std::size_t i = 0; i < load.deliveries; ++i) {
    const runtime::wire::SdoDelivery d{
        static_cast<std::uint32_t>(rng.uniform_int(0, 199)),
        static_cast<std::uint32_t>(rng.uniform_int(0, 79)), rng.uniform()};
    go.deliveries.push_back(d);
    done.deliveries.push_back(d);
  }
  for (std::size_t i = 0; i < load.go_adverts; ++i) {
    const runtime::wire::Advert a{static_cast<std::uint32_t>(i),
                                  rng.uniform(0.0, 100.0), rng.uniform()};
    go.adverts.push_back(a);
    if (i < load.done_adverts) done.adverts.push_back(a);
  }
  // What a worker reports without span tracing: its counter deltas and
  // its quantum gauge.
  runtime::wire::MetricsReport report;
  for (const char* name : {"dist.sdo.arrived", "dist.sdo.processed",
                           "dist.sdo.emitted", "dist.sdo.dropped",
                           "dist.sdo.cross_node"}) {
    report.counters.push_back(
        {name, static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20))});
  }
  report.gauges.push_back({"dist.quantum", 1.0});

  constexpr int kFrames = 300;  // 100 of each kind per batch
  std::size_t bytes = 0;
  const double encode = median_batch_seconds(budget_s / 2, 5, [&] {
    for (int i = 0; i < kFrames / 3; ++i) {
      go.quantum = static_cast<std::uint64_t>(i);
      bytes += runtime::wire::encode(go).size();
      bytes += runtime::wire::encode(done).size();
      bytes += runtime::wire::encode(report).size();
    }
  });
  const auto go_bytes = runtime::wire::encode(go);
  const auto done_bytes = runtime::wire::encode(done);
  const auto report_bytes = runtime::wire::encode(report);
  std::size_t decoded = 0;
  const double decode = median_batch_seconds(budget_s / 2, 5, [&] {
    for (int i = 0; i < kFrames / 3; ++i) {
      const auto a = runtime::wire::parse_frame(go_bytes.data(), go_bytes.size());
      const auto b =
          runtime::wire::parse_frame(done_bytes.data(), done_bytes.size());
      const auto c =
          runtime::wire::parse_frame(report_bytes.data(), report_bytes.size());
      if (a && runtime::wire::decode_step_go(a->payload)) ++decoded;
      if (b && runtime::wire::decode_step_done(b->payload)) ++decoded;
      if (c && runtime::wire::decode_metrics_report(c->payload)) ++decoded;
    }
  });
  WireCost cost;
  cost.encode_ns = encode * 1e9 / kFrames;
  cost.decode_ns = decode * 1e9 / kFrames;
  cost.go_bytes = go_bytes.size();
  cost.done_bytes = done_bytes.size();
  cost.report_bytes = report_bytes.size();
  cost.ok = decoded > 0 && bytes > 0;
  return cost;
}

RoundTrip probe_inproc_rtt(double budget_s) {
  auto [a, b] = runtime::transport::make_inproc_pair();
  runtime::transport::Endpoint* echo_side = b.get();
  std::thread echo([echo_side] {
    runtime::wire::Frame frame;
    while (echo_side->recv(&frame, -1) ==
           runtime::transport::RecvStatus::kOk) {
      runtime::wire::Heartbeat hb;
      hb.quantum = frame.payload.size();
      if (!echo_side->send(runtime::wire::encode(hb))) break;
    }
  });
  std::vector<double> rtts;
  runtime::wire::Heartbeat ping;
  runtime::wire::Frame reply;
  const double stop = now_s() + budget_s;
  bool ok = true;
  while (rtts.size() < 200 || (now_s() < stop && rtts.size() < 200000)) {
    ping.quantum = rtts.size();
    const double t0 = now_s();
    if (!a->send(runtime::wire::encode(ping)) ||
        a->recv(&reply, 2000) != runtime::transport::RecvStatus::kOk) {
      ok = false;
      break;
    }
    rtts.push_back(now_s() - t0);
  }
  a->close();
  echo.join();
  RoundTrip rt;
  rt.p50_us = quantile(rtts, 0.50) * 1e6;
  rt.p99_us = quantile(rtts, 0.99) * 1e6;
  rt.samples = rtts.size();
  rt.ok = ok;
  return rt;
}

}  // namespace perfbench
