#include "sim/pe_kernel.h"

#include "common/check.h"

namespace aces::sim::kernel {

Seconds staleness_window(const control::ControllerConfig& c) {
  return control::uses_flow_control(c.policy) ? c.advert_staleness_timeout
                                              : 0.0;
}

obs::TickRecord tick_record(const control::NodeController& controller,
                            std::size_t local_index, Seconds now,
                            const control::PeTickInput& in,
                            const control::PeTickOutput& out,
                            std::uint64_t dropped, bool stalled,
                            Seconds staleness, bool has_downstream) {
  obs::TickRecord rec;
  rec.time = now;
  rec.node = controller.node().value();
  rec.pe = controller.local_pes()[local_index].value();
  rec.buffer_occupancy = in.buffer_occupancy;
  rec.arrived_sdos = in.arrived_sdos;
  rec.processed_sdos = in.processed_sdos;
  rec.cpu_share = stalled ? 0.0 : out.cpu_share;
  rec.cpu_seconds_used = in.cpu_seconds_used;
  rec.advertised_rmax = out.advertised_rmax;
  rec.downstream_rmax = in.downstream_rmax;
  rec.token_fill = controller.tokens(local_index);
  rec.output_blocked = in.output_blocked;
  rec.dropped_total = dropped;
  if (stalled) rec.fault_flags |= obs::kFaultPeStalled;
  if (staleness > 0.0 && has_downstream &&
      in.downstream_advert_age > staleness) {
    rec.fault_flags |= obs::kFaultAdvertStale;
  }
  return rec;
}

std::size_t count_egress(const graph::ProcessingGraph& g) {
  std::size_t count = 0;
  for (PeId id : g.all_pes()) count += g.pe(id).kind == graph::PeKind::kEgress;
  return count;
}

PeStreams fork_pe_streams(const graph::ProcessingGraph& g, Rng& master) {
  PeStreams streams;
  streams.service.reserve(g.pe_count());
  for (PeId id : g.all_pes()) {
    const auto& d = g.pe(id);
    streams.service.emplace_back(d.service_time[0], d.service_time[1],
                                 d.sojourn_mean[0], d.sojourn_mean[1],
                                 master.fork(0x5E41 + id.value()));
  }
  for (PeId id : g.all_pes()) {
    if (g.pe(id).kind != graph::PeKind::kIngress) continue;
    streams.ingress.emplace_back(id, master.fork(0xA11 + id.value()));
  }
  return streams;
}

std::unique_ptr<workload::ArrivalProcess> make_source(
    const workload::ArrivalFactory& factory, const graph::ProcessingGraph& g,
    PeId pe, Rng rng) {
  const StreamId stream = g.pe(pe).input_stream;
  auto process = factory ? factory(stream, g.stream(stream), std::move(rng))
                         : workload::make_arrival_process(g.stream(stream),
                                                          std::move(rng));
  ACES_CHECK_MSG(process != nullptr,
                 "arrival factory returned null for stream " << stream);
  return process;
}

}  // namespace aces::sim::kernel
