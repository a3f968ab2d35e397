// The three workloads of the end-to-end benchmark (README.md says why
// each was chosen and which layer metric should move which end-to-end
// metric on it).
//
//   sim200        the discrete-event simulator, paper-scale topologies
//                 (200 PEs on 80 nodes), all four policies.
//   dist-inproc3  the barrier-stepped distributed runtime on the same
//                 topologies, 3 in-process shards, ACES and Lock-Step.
//   rt-ladder     the wall-paced threaded runtime, 24 PEs on 3 nodes,
//                 ACES open loop on a fixed ladder of time scales.
//
// A workload instance is a set of random topologies derived from the seed,
// as the paper averages over several generated topologies. A timed cycle
// runs every topology once; every metric combines all the topologies.
// BENCHMARK.json gates sim200 and rt-ladder; dist-inproc3 runs on demand
// (its wall time follows host contention, README.md).
#include "workloads.h"

#include <cmath>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/histogram.h"
#include "common/stats.h"
#include "control/config.h"
#include "graph/topology_generator.h"
#include "harness/defaults.h"
#include "metrics/report_fingerprint.h"
#include "metrics/run_report.h"
#include "obs/cluster_aggregate.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "opt/global_optimizer.h"
#include "probes.h"
#include "runtime/dist_coordinator.h"
#include "runtime/runtime_engine.h"
#include "sim/stream_simulation.h"

namespace perfbench {

using namespace aces;
using control::FlowPolicy;

namespace {

// Run spec shared by all engines: virtual seconds, of which the first
// kWarmup are excluded from measurement.
constexpr double kDuration = 60.0;
constexpr double kWarmup = 10.0;
// Topologies per instance: the seed-to-seed spread of every metric shrinks
// with the square root of this count.
constexpr std::size_t kPaperTopologies = 12;
constexpr std::size_t kLadderTopologies = 36;
constexpr std::uint32_t kShards = 3;
constexpr std::uint32_t kSubsteps = 4;  // DistOptions default
constexpr double kDt = 0.1;
// rt-ladder: time scales (virtual s per wall s) straddling the knee of the
// 24-PE topologies, and the limits that define "sustainable".
constexpr double kRungs[] = {320.0, 640.0, 1280.0, 2560.0};
constexpr double kLatencyLimit = 1.5;  // × the simulator's ACES p50
constexpr double kWtputHold = 0.9;     // × the simulator's wtput_norm
// Timed cycles per run: the median over three rejects one slow cycle.
constexpr std::size_t kMinCycles = 3;
// Each layer probe of the traced run measures for this long.
constexpr double kProbeBudget = 0.4;
// The wire probe's mean frame size may differ from the measured one by
// this share.
constexpr double kFrameTolerance = 0.25;

const std::vector<FlowPolicy> kAllPolicies = {
    FlowPolicy::kAces, FlowPolicy::kUdp, FlowPolicy::kLockStep,
    FlowPolicy::kThreshold};
const std::vector<FlowPolicy> kDistPolicies = {FlowPolicy::kAces,
                                               FlowPolicy::kLockStep};

graph::TopologyParams paper_topology() {
  return harness::scaled_topology();  // 34 / 132 / 34 PEs on 80 nodes
}

graph::TopologyParams ladder_topology() {
  graph::TopologyParams p;
  p.num_nodes = 3;
  p.num_ingress = 4;
  p.num_intermediate = 16;
  p.num_egress = 4;
  return p;
}

struct Topology {
  graph::ProcessingGraph g;
  opt::AllocationPlan plan;
  std::uint64_t engine_seed = 0;  ///< simulator / runtime seed
};

using Topologies = std::vector<Topology>;

// Seeds: topology k of the instance gets its own topology and engine seed.
std::uint64_t topology_seed(std::uint64_t seed, std::size_t k) {
  return derive_seed(seed, 1000 + k);
}
std::uint64_t engine_seed(std::uint64_t seed, std::size_t k) {
  return derive_seed(seed, 2000 + k);
}
std::uint64_t probe_seed(std::uint64_t seed) { return derive_seed(seed, 3000); }

/// The set-up of a topology, timed: topology generation, the tier-1 solve
/// and, where the engine exposes it apart from its run call, engine
/// construction (`construct`). One set-up takes milliseconds, while the
/// VM's speed drifts over seconds, so set-up is sampled throughout the
/// run, like the timed cycles: three rounds over the topologies build the
/// instance, and resample() continues the rounds after every timed unit.
/// setup_s is the median of all samples.
class Setup {
 public:
  Setup(graph::TopologyParams params, std::uint64_t seed, SpanLog* spans,
        std::function<void(const Topology&)> construct)
      : params_(params),
        seed_(seed),
        spans_(spans),
        construct_(std::move(construct)) {}

  Topologies build_all(std::size_t count) {
    count_ = count;
    Topologies topologies(count);
    for (std::size_t rep = 0; rep < 3 * count; ++rep) {
      topologies[rep % count] = build(rep % count);
    }
    return topologies;
  }

  /// Set-ups, round-robin over the topologies, for kResampleSeconds (at
  /// least one).
  void resample() {
    const double stop = now_s() + kResampleSeconds;
    do {
      build(next_);
      next_ = (next_ + 1) % count_;
    } while (now_s() < stop);
  }

  [[nodiscard]] double median_s() const { return median(samples_); }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

 private:
  static constexpr double kResampleSeconds = 0.02;

  Topology build(std::size_t k) {
    const double t0 = now_s();
    Topology t;
    t.engine_seed = engine_seed(seed_, k);
    {
      Span s(spans_, "graph.generate_topology");
      t.g = graph::generate_topology(params_, topology_seed(seed_, k));
    }
    {
      Span s(spans_, "opt.optimize");
      t.plan = opt::optimize(t.g);
    }
    construct_(t);
    samples_.push_back(now_s() - t0);
    return t;
  }

  graph::TopologyParams params_;
  std::uint64_t seed_;
  SpanLog* spans_;
  std::function<void(const Topology&)> construct_;
  std::size_t count_ = 1;
  std::size_t next_ = 0;
  std::vector<double> samples_;
};

void add_common_end_to_end(Outcome& out, const Setup& setup) {
  out.add("setup_s", setup.median_s(), "s", "median set-up of one topology");
  out.add("peak_rss_mb", usage_now().max_rss_mb, "MB");
  out.diagnostics.push_back("setup_samples=" +
                            std::to_string(setup.samples()));
}

/// Quantile of a LogHistogram with log-linear interpolation inside the
/// bucket, so the value moves continuously with the data instead of
/// snapping to bucket midpoints 12% apart.
double histogram_quantile(const LogHistogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(h.count())));
  const auto& counts = h.raw_counts();
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (seen + c >= rank && c > 0.0) {
      if (i == 0) return h.min();
      if (i == counts.size() - 1) return h.max();
      const double lo = std::max(h.bucket_lower(i - 1), h.min());
      const double hi = std::min(h.bucket_lower(i), h.max());
      const double frac = (rank - seen - 0.5) / c;
      return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
    }
    seen += c;
  }
  return h.max();
}

struct Quality {
  double wtput_norm = 0.0;
  double p50_ms = 0.0;
  double p999_ms = 0.0;
  std::uint64_t samples = 0;  ///< fewest latency samples of a topology
  double drop_frac = 0.0;
};

/// ACES output over the instance's topologies: weighted throughput over
/// the summed fluid bounds; SDO copies dropped at full buffers over copies
/// offered to any PE's buffer; latency quantiles as the median over
/// topologies of each topology's quantile, which one topology with an
/// unusual tail cannot move.
struct Pool {
  double wtput = 0.0;
  double fluid = 0.0;
  double dropped = 0.0;
  double offered = 0.0;
  std::vector<LogHistogram> latency;  ///< [topology]

  void add(const metrics::RunReport& r, const Topology& t, std::size_t k) {
    wtput += r.weighted_throughput;
    fluid += t.plan.weighted_throughput;
    if (latency.size() <= k) latency.resize(k + 1);
    latency[k].merge(r.latency_histogram);
    for (const metrics::PeAccounting& pe : r.per_pe) {
      dropped += static_cast<double>(pe.dropped_input);
      offered += static_cast<double>(pe.arrived + pe.dropped_input);
    }
  }

  [[nodiscard]] Quality quality() const {
    Quality q;
    q.wtput_norm = fluid > 0.0 ? wtput / fluid : 0.0;
    std::vector<double> p50;
    std::vector<double> p999;
    q.samples = std::numeric_limits<std::uint64_t>::max();
    for (const LogHistogram& h : latency) {
      p50.push_back(histogram_quantile(h, 0.5) * 1e3);
      p999.push_back(histogram_quantile(h, 0.999) * 1e3);
      q.samples = std::min(q.samples, h.count());
    }
    q.p50_ms = median(p50);
    q.p999_ms = median(p999);
    q.drop_frac = offered > 0.0 ? dropped / offered : 0.0;
    return q;
  }
};

std::string sample_note(std::uint64_t n) { return "n=" + std::to_string(n); }

std::string min_sample_note(std::uint64_t n) {
  return "n>=" + std::to_string(n) + " per topology";
}

/// Per-PE SDO conservation, from the report's lifetime accounting:
///  * a PE never processes more than it accepted, and what it accepted but
///    has not processed fits in its buffer plus `slack` (the SDO in
///    service, a staging burst);
///  * a PE never receives (accepts or drops) more copies than its
///    upstream PEs sent it (an upstream PE sends the same copies to every
///    downstream PE, so its per-edge count is emitted / fan-out);
///  * egress PEs emitted at least the outputs the report counts.
bool conserved(const Topology& t, const metrics::RunReport& r,
               std::uint64_t slack, std::string* why) {
  const graph::ProcessingGraph& g = t.g;
  if (r.per_pe.size() != g.pe_count()) {
    *why = "per_pe has " + std::to_string(r.per_pe.size()) + " entries";
    return false;
  }
  std::size_t egress = 0;
  std::uint64_t egress_emitted = 0;
  for (PeId id : g.all_pes()) {
    const metrics::PeAccounting& pe = r.per_pe[id.value()];
    const auto cap = static_cast<std::uint64_t>(g.pe(id).buffer_capacity);
    if (pe.processed > pe.arrived || pe.arrived - pe.processed > cap + slack) {
      *why = "pe" + std::to_string(id.value()) + " accepted " +
             std::to_string(pe.arrived) + " processed " +
             std::to_string(pe.processed);
      return false;
    }
    double sent = 0.0;
    for (PeId u : g.upstream(id)) {
      sent += static_cast<double>(r.per_pe[u.value()].emitted) /
              static_cast<double>(g.downstream(u).size());
    }
    const auto received = static_cast<double>(pe.arrived + pe.dropped_input);
    if (!g.upstream(id).empty() && received > sent + 1e-9) {
      *why = "pe" + std::to_string(id.value()) + " received " +
             std::to_string(received) + " > sent " + std::to_string(sent);
      return false;
    }
    if (g.pe(id).kind == graph::PeKind::kEgress) {
      ++egress;
      egress_emitted += pe.emitted;
    }
  }
  std::uint64_t outputs = 0;
  for (std::uint64_t n : r.egress_outputs) outputs += n;
  if (r.egress_outputs.size() != egress || outputs > egress_emitted) {
    *why = "egress outputs exceed egress emissions";
    return false;
  }
  return true;
}

void check_conserved(Outcome& out, const Topology& t,
                     const metrics::RunReport& r, std::uint64_t slack,
                     const std::string& label) {
  std::string why;
  const bool ok = conserved(t, r, slack, &why);
  out.check(ok, "conservation, " + label + ": " + why);
}

bool same_work(const metrics::RunReport& a, const metrics::RunReport& b) {
  return metrics::work_fingerprint(a) == metrics::work_fingerprint(b);
}

/// Distinct (node, tick time) pairs: NodeController::tick calls.
std::uint64_t count_ticks(const std::vector<obs::TickRecord>& records) {
  std::set<std::pair<std::uint32_t, double>> ticks;
  for (const obs::TickRecord& r : records) ticks.insert({r.node, r.time});
  return ticks.size();
}

/// Wall and process CPU time of some engine calls, and their SDOs.
struct Timing {
  double wall = 0.0;
  double cpu = 0.0;
  double switches = 0.0;
  double sdos = 0.0;
  double virtual_s = 0.0;

  void add(const Timing& o) {
    wall += o.wall;
    cpu += o.cpu;
    switches += o.switches;
    sdos += o.sdos;
    virtual_s += o.virtual_s;
  }
};

/// Times one engine call returning a RunReport into `timing`.
template <typename Call>
metrics::RunReport timed(Timing* timing, SpanLog* spans, const char* name,
                         Call&& call) {
  const Usage u0 = usage_now();
  const double t0 = now_s();
  metrics::RunReport r;
  {
    Span s(spans, name);
    r = call();
  }
  const double t1 = now_s();
  const Usage u1 = usage_now();
  timing->wall += t1 - t0;
  timing->cpu += u1.cpu_s - u0.cpu_s;
  timing->switches += static_cast<double>(u1.vol_switches - u0.vol_switches);
  timing->sdos += static_cast<double>(r.sdos_processed);
  timing->virtual_s += kDuration;
  return r;
}

/// Reports of one topology, in the workload's policy (or rung) order.
using Reports = std::vector<metrics::RunReport>;

/// Timings of one kind of unit: [topology][cycle].
using Units = std::vector<std::vector<Timing>>;

/// Timed cycles over the instance: one cycle runs the workload's engine
/// calls on every topology once. Each topology's calls are one timed unit.
struct Cycles {
  Units units;
  std::vector<Reports> first;              ///< [topology], first cycle
  std::vector<double> cycle_wall;
  std::vector<double> cycle_rate;          ///< SDOs per wall second
  /// Share of all CPU time the host took from this VM while the cycles
  /// ran; a large share marks a run slowed by other tenants, not the code.
  double steal_frac = 0.0;
};

/// Runs whole cycles until `seconds` have passed (at least `min_cycles`),
/// and samples `setup` after every unit. Engines in virtual time must
/// repeat their work exactly, so every unit's work fingerprints are
/// compared with its first cycle's.
template <typename Unit>
Cycles timed_cycles(Outcome& out, std::size_t topologies, double seconds,
                    std::size_t min_cycles, bool deterministic, Setup& setup,
                    Unit&& unit) {
  Cycles c;
  c.units.resize(topologies);
  c.first.resize(topologies);
  const CpuTicks ticks0 = cpu_ticks_now();
  const double stop = now_s() + seconds;
  while (c.cycle_wall.size() < min_cycles || now_s() < stop) {
    Timing cycle;
    bool same = true;
    for (std::size_t k = 0; k < topologies; ++k) {
      Timing t;
      Reports reports = unit(k, &t);
      setup.resample();
      c.units[k].push_back(t);
      cycle.add(t);
      if (c.cycle_wall.empty()) {
        c.first[k] = std::move(reports);
        continue;
      }
      for (std::size_t i = 0; deterministic && i < reports.size(); ++i) {
        same = same && same_work(reports[i], c.first[k][i]);
      }
    }
    if (deterministic && !c.cycle_wall.empty()) {
      out.check(same, "cycle " + std::to_string(c.cycle_wall.size() + 1) +
                          " repeats the first cycle's work");
    }
    c.cycle_wall.push_back(cycle.wall);
    c.cycle_rate.push_back(cycle.sdos / cycle.wall);
  }
  const CpuTicks ticks1 = cpu_ticks_now();
  if (ticks1.total > ticks0.total) {
    c.steal_frac = (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total);
  }
  return c;
}

/// A typical cycle: per topology, the median over cycles of each field
/// of its unit, summed over the topologies. The median rejects one slow
/// cycle of a topology; the sum weighs every topology by its time, so the
/// VM's second-scale speed changes and the topologies' differences average
/// out better than in a median across topologies.
Timing typical_cycle(const Units& all) {
  Timing sum;
  for (const std::vector<Timing>& units : all) {
    const auto field = [&units](double Timing::*f) {
      std::vector<double> v;
      for (const Timing& t : units) v.push_back(t.*f);
      return median(v);
    };
    sum.wall += field(&Timing::wall);
    sum.cpu += field(&Timing::cpu);
    sum.sdos += field(&Timing::sdos);
    sum.virtual_s += field(&Timing::virtual_s);
  }
  return sum;
}

/// sdos_per_s is taken from `rate_units`: the whole units of an engine in
/// virtual time, which runs as fast as it can; on the wall-paced runtime
/// only the saturated top rung, since below the knee its SDOs per wall
/// second are the offered load, whatever the runtime's speed.
void add_throughput_metrics(Outcome& out, const Cycles& c,
                            const Units& rate_units, bool wall_paced) {
  const std::string note =
      "typical cycle of " + std::to_string(c.units.size()) +
      " topologies, median of " + std::to_string(c.cycle_wall.size());
  const Timing typical = typical_cycle(c.units);
  const Timing rate = typical_cycle(rate_units);
  out.add("sdos_per_s", rate.sdos / rate.wall, "1/s",
          wall_paced ? note + ", top rung" : note);
  out.add("cpu_us_per_sdo", typical.cpu * 1e6 / typical.sdos, "us", note);
  if (!wall_paced) {
    // An engine in virtual time sustains exactly its speed: for fixed
    // topologies this is sdos_per_s rescaled, and moves with it.
    out.add("sustainable_timescale", typical.virtual_s / typical.wall,
            "virt_s/s", note);
  }
  std::ostringstream diag;
  diag << "cycles=" << c.cycle_wall.size() << " cycle_wall_s=";
  for (std::size_t i = 0; i < c.cycle_wall.size(); ++i) {
    diag << (i ? "," : "") << c.cycle_wall[i];
  }
  diag << " cycle_sdos_per_s=";
  for (std::size_t i = 0; i < c.cycle_rate.size(); ++i) {
    diag << (i ? "," : "") << c.cycle_rate[i];
  }
  diag << " steal_frac=" << c.steal_frac;
  out.diagnostics.push_back(diag.str());
}

void add_quality_metrics(Outcome& out, const Quality& q) {
  out.add("wtput_norm", q.wtput_norm, "ratio");
  out.add("latency_ms_p50", q.p50_ms, "ms", min_sample_note(q.samples));
  out.add("latency_ms_p999", q.p999_ms, "ms", min_sample_note(q.samples));
  out.add("drop_frac", q.drop_frac, "ratio");
}

/// |engine / simulator − 1| on the same topologies, seeds and policy.
void add_gap_metrics(Outcome& out, const Quality& engine,
                     const Quality& simulator) {
  out.add("metrics.sim_gap_wtput",
          std::abs(engine.wtput_norm / simulator.wtput_norm - 1.0), "ratio");
  out.add("metrics.sim_gap_latency_p50",
          std::abs(engine.p50_ms / simulator.p50_ms - 1.0), "ratio");
}

sim::SimOptions sim_options(FlowPolicy policy, const Topology& t) {
  sim::SimOptions o;
  o.duration = kDuration;
  o.warmup = kWarmup;
  o.dt = kDt;
  o.seed = t.engine_seed;
  o.controller.policy = policy;
  return o;
}

runtime::dist::DistOptions dist_options(FlowPolicy policy, const Topology& t,
                                        std::uint32_t shards) {
  runtime::dist::DistOptions o;
  o.duration = kDuration;
  o.warmup = kWarmup;
  o.dt = kDt;
  o.substeps = kSubsteps;
  o.seed = t.engine_seed;
  o.processes = shards;
  o.transport = runtime::transport::TransportKind::kInProc;
  o.controller.policy = policy;
  return o;
}

runtime::RuntimeOptions runtime_options(double time_scale, const Topology& t) {
  runtime::RuntimeOptions o;
  o.duration = kDuration;
  o.warmup = kWarmup;
  o.dt = kDt;
  o.time_scale = time_scale;
  o.seed = t.engine_seed;
  o.controller.policy = FlowPolicy::kAces;
  return o;
}

std::string label(const char* engine, FlowPolicy p, std::size_t k) {
  return std::string(engine) + " " + control::to_string(p) + " topology " +
         std::to_string(k);
}

/// ACES quality pooled over every topology: `reports[k][index]` is the
/// ACES report of topology k.
Quality pooled(const Topologies& ts, const std::vector<Reports>& reports,
               std::size_t index) {
  Pool pool;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    pool.add(reports[k][index], ts[k], k);
  }
  return pool.quality();
}

/// The simulator's ACES run on every topology: the conformance reference
/// of the runtimes. `timing` gets their time for the traced run; with
/// `recorders` (one per topology) the runs record their control ticks.
std::vector<Reports> reference_sim(
    Outcome& out, const Topologies& ts, SpanLog* spans, Timing* timing,
    std::vector<obs::ControlTraceRecorder>* recorders) {
  std::vector<Reports> reports(ts.size());
  for (std::size_t k = 0; k < ts.size(); ++k) {
    sim::SimOptions o = sim_options(FlowPolicy::kAces, ts[k]);
    if (recorders != nullptr) o.trace = &(*recorders)[k];
    reports[k].push_back(timed(timing, spans, "sim.simulate[reference]", [&] {
      return sim::simulate(ts[k].g, ts[k].plan, o);
    }));
    ++out.attempted;
    check_conserved(out, ts[k], reports[k].back(), 1,
                    label("sim reference", FlowPolicy::kAces, k));
  }
  return reports;
}

// ---------------------------------------------------------------------------
// Per-layer metrics shared by every traced run.

const char* const kRuntimeCounters[] = {
    "runtime.channel.send", "runtime.channel.drop", "runtime.channel.block",
    "runtime.source.inject", "runtime.source.drop"};

/// runtime.channel.send at rung 640 -> runtime.x640.channel.send
std::string rung_metric(double time_scale, const std::string& counter) {
  std::ostringstream os;
  os << "runtime.x" << static_cast<int>(time_scale)
     << counter.substr(std::string("runtime").size());
  return os.str();
}

/// Per-rung CounterRegistry totals; absent rungs (workloads that do not
/// run the threaded runtime) report 0.
using RungCounters = std::map<double, std::map<std::string, std::uint64_t>>;

void add_rung_counters(Outcome& out, const RungCounters& counters) {
  for (double ts : kRungs) {
    for (const char* name : kRuntimeCounters) {
      std::uint64_t v = 0;
      const auto rung = counters.find(ts);
      if (rung != counters.end()) {
        const auto it = rung->second.find(name);
        if (it != rung->second.end()) v = it->second;
      }
      out.add(rung_metric(ts, name), static_cast<double>(v), "count");
    }
  }
}

/// What traced distributed runs report through their ClusterAggregator,
/// and the process counters around them.
struct DistLayer {
  Timing timing;
  double quanta = 0.0;
  double frames = 0.0;
  double telemetry_frames = 0.0;
  double bytes = 0.0;
  double cross_node = 0.0;  ///< SDO deliveries through the coordinator
  OnlineStats rtt;
  double skew_max = 0.0;

  void absorb(const obs::ClusterAggregator& agg) {
    std::uint64_t last_quantum = 0;
    for (const auto& [rank, s] : agg.shard_statuses()) {
      last_quantum = std::max(last_quantum, s.last_quantum);
      frames += static_cast<double>(s.frames_in + s.frames_out);
      telemetry_frames += static_cast<double>(
          s.metrics_reports + s.span_batches + s.flight_dumps + s.heartbeats);
      bytes += static_cast<double>(s.bytes_in + s.bytes_out);
      rtt.merge(s.rtt_seconds);
    }
    quanta += static_cast<double>(last_quantum + 1);
    skew_max = std::max(skew_max, agg.max_step_skew());
    for (const auto& [name, value] : agg.cluster_counters()) {
      if (name == "dist.sdo.cross_node") {
        cross_node += static_cast<double>(value);
      }
    }
  }

  /// Mean contents of one shard's frames in one quantum, from the
  /// measured deliveries. Every PE refreshes its advert once per control
  /// interval; the coordinator broadcasts every shard's adverts.
  [[nodiscard]] FrameLoad frame_load(std::size_t pes) const {
    FrameLoad f;
    const double shard_quanta = quanta * kShards;
    f.deliveries =
        static_cast<std::size_t>(std::llround(cross_node / shard_quanta));
    f.go_adverts = static_cast<std::size_t>(
        std::llround(static_cast<double>(pes) / kSubsteps));
    f.done_adverts = static_cast<std::size_t>(
        std::llround(static_cast<double>(pes) / (kSubsteps * kShards)));
    return f;
  }

  void add_metrics(Outcome& out) const {
    out.add("dist.quanta", quanta, "count");
    out.add("dist.wakes_per_quantum", timing.switches / quanta, "ratio");
    out.add("dist.cpu_util", timing.cpu / timing.wall, "ratio");
    out.add("dist.step_rtt_us", rtt.mean() * 1e6, "us",
            sample_note(rtt.count()));
    out.add("dist.step_skew_ms_max", skew_max * 1e3, "ms");
    out.add("dist.frames_per_quantum", frames / quanta, "ratio");
    out.add("dist.bytes_per_sdo", bytes / timing.sdos, "bytes");
    out.add("dist.telemetry_frame_frac", telemetry_frames / frames, "ratio");
  }
};

/// Runs `policies` on topology `t` on the distributed runtime, each run
/// with a ClusterAggregator, and folds their numbers into `layer`.
Reports traced_dist(Outcome& out, const Topology& t, std::size_t k,
                    const std::vector<FlowPolicy>& policies, SpanLog* spans,
                    DistLayer* layer) {
  Reports reports;
  for (FlowPolicy p : policies) {
    obs::ClusterAggregator agg;
    runtime::dist::DistOptions o = dist_options(p, t, kShards);
    o.aggregator = &agg;
    reports.push_back(timed(
        &layer->timing, spans, "runtime.dist.run_distributed[traced]",
        [&] { return runtime::dist::run_distributed(t.g, t.plan, o); }));
    ++out.attempted;
    layer->absorb(agg);
    check_conserved(out, t, reports.back(), 1, label("dist traced", p, k));
  }
  return reports;
}

/// Partition invariance (docs/architecture.md): ACES at one shard does the
/// same work as `three_shards`, the 3-shard run of the same spec. With
/// `ticks`, the one-shard run also ships its control ticks, which are
/// counted into it.
void check_partition_invariance(Outcome& out, const Topology& t,
                                std::size_t k,
                                const metrics::RunReport& three_shards,
                                SpanLog* spans, std::uint64_t* ticks) {
  obs::ClusterAggregator agg;
  runtime::dist::DistOptions o = dist_options(FlowPolicy::kAces, t, 1);
  o.record_trace = ticks != nullptr;
  o.aggregator = ticks != nullptr ? &agg : nullptr;
  metrics::RunReport one;
  {
    Span s(spans, "runtime.dist.run_distributed[1 shard]");
    one = runtime::dist::run_distributed(t.g, t.plan, o);
  }
  ++out.attempted;
  out.check(same_work(one, three_shards),
            "1-shard work == 3-shard work, ACES topology " + std::to_string(k));
  if (ticks != nullptr) *ticks += count_ticks(agg.trace_records());
}

/// Layer probes every traced run reports, at the workload's sizes:
/// topology 0 of the instance, the event load of `sim_aces` (its simulator
/// ACES run) and the frames of the traced distributed runs in `dist`.
void add_probe_metrics(Outcome& out, const Topology& t, std::uint64_t seed,
                       SpanLog* spans, const metrics::RunReport& sim_aces,
                       const DistLayer& dist) {
  {
    Span s(spans, "probe.control.tick");
    out.add("control.tick_us", probe_control_tick_us(t.g, t.plan, kProbeBudget),
            "us");
  }
  {
    Span s(spans, "probe.workload.next_interarrival");
    out.add("workload.arrival_ns", probe_arrival_ns(t.g, seed, kProbeBudget),
            "ns");
  }
  {
    Span s(spans, "probe.sim.calendar");
    const EventLoad load = sim_event_load(
        t.g, sim_aces, sim_options(FlowPolicy::kAces, t));
    std::ostringstream note;
    note << std::setprecision(4) << "population=" << load.population
         << " gap=" << load.mean_gap << "s";
    out.add("sim.calendar_ns_per_event",
            probe_calendar_ns(load, seed, kProbeBudget), "ns", note.str());
  }
  {
    Span s(spans, "probe.runtime.spsc_ring");
    out.add("runtime.ring_ns_per_sdo", probe_ring_ns_per_sdo(kProbeBudget),
            "ns");
  }
  {
    Span s(spans, "probe.wire");
    const FrameLoad load = dist.frame_load(t.g.pe_count());
    const WireCost w = probe_wire(load, kProbeBudget);
    out.check(w.ok, "wire probe frames decode");
    // Per shard and quantum a run sends one StepGo and one StepDone, and a
    // MetricsReport every kSubsteps quanta; their mean size must match the
    // measured mean frame of the traced runs, which also holds the few
    // set-up, heartbeat and final frames.
    const double probe_frame =
        (static_cast<double>(w.go_bytes + w.done_bytes) +
         static_cast<double>(w.report_bytes) / kSubsteps) /
        (2.0 + 1.0 / kSubsteps);
    const double measured_frame = dist.bytes / dist.frames;
    std::ostringstream note;
    note << std::setprecision(4) << "frame=" << probe_frame
         << "B measured=" << measured_frame << "B deliveries="
         << load.deliveries;
    out.check(std::abs(probe_frame / measured_frame - 1.0) <= kFrameTolerance,
              "wire probe frame " + note.str());
    out.add("wire.encode_ns", w.encode_ns, "ns", note.str());
    out.add("wire.decode_ns", w.decode_ns, "ns", note.str());
  }
  {
    Span s(spans, "probe.transport.inproc_rtt");
    const RoundTrip rt = probe_inproc_rtt(kProbeBudget);
    out.check(rt.ok, "inproc transport ping-pong");
    out.add("transport.inproc_rtt_us_p50", rt.p50_us, "us",
            sample_note(rt.samples));
    out.add("transport.inproc_rtt_us_p99", rt.p99_us, "us",
            sample_note(rt.samples));
  }
}

void add_setup_layer_metrics(Outcome& out, const SpanLog* spans) {
  const auto gen = spans->durations("graph.generate_topology");
  const auto solve = spans->durations("opt.optimize");
  out.add("graph.generate_ms", median(gen) * 1e3, "ms",
          sample_note(gen.size()));
  out.add("opt.solve_ms", median(solve) * 1e3, "ms",
          sample_note(solve.size()));
}

/// sim.* engine metrics from simulator runs of this invocation.
void add_sim_layer_metrics(Outcome& out, const std::vector<Reports>& reports,
                           const Timing& timing) {
  double events = 0.0;
  for (const Reports& rs : reports) {
    for (const metrics::RunReport& r : rs) {
      events += static_cast<double>(r.events_executed);
    }
  }
  out.add("sim.events", events, "count");
  out.add("sim.events_per_sdo", events / timing.sdos, "ratio");
  out.add("sim.run_s", timing.wall, "s");
  out.add("sim.ns_per_event", timing.wall * 1e9 / events, "ns");
}

}  // namespace

// ===========================================================================
// sim200

Outcome run_sim200(const RunArgs& args) {
  Outcome out;
  SpanLog* spans = args.spans;
  Setup setup(paper_topology(), args.seed, spans, [&](const Topology& t) {
    Span s(spans, "sim.StreamSimulation");
    for (FlowPolicy p : kAllPolicies) {
      sim::StreamSimulation engine(t.g, t.plan, sim_options(p, t));
    }
  });
  const Topologies ts = setup.build_all(kPaperTopologies);

  // One unit: the four policies on topology k, ACES first.
  const auto unit = [&](std::size_t k, Timing* timing,
                        obs::ControlTraceRecorder* recorder) {
    Reports reports;
    for (FlowPolicy p : kAllPolicies) {
      sim::SimOptions o = sim_options(p, ts[k]);
      if (p == FlowPolicy::kAces) o.trace = recorder;
      reports.push_back(timed(
          timing, spans,
          recorder != nullptr ? "sim.simulate[traced]" : "sim.simulate",
          [&] { return sim::simulate(ts[k].g, ts[k].plan, o); }));
      ++out.attempted;
      check_conserved(out, ts[k], reports.back(), 1, label("sim", p, k));
    }
    return reports;
  };

  if (!args.trace) {
    const Cycles cycles = timed_cycles(
        out, ts.size(), args.seconds, kMinCycles, true, setup,
        [&](std::size_t k, Timing* t) { return unit(k, t, nullptr); });
    add_throughput_metrics(out, cycles, cycles.units, false);
    add_common_end_to_end(out, setup);
    add_quality_metrics(out, pooled(ts, cycles.first, 0));
    return out;
  }

  // Traced run: one cycle untraced and one traced, then the layer probes.
  Timing plain;
  Timing traced;
  std::vector<Reports> untraced(ts.size());
  std::vector<obs::ControlTraceRecorder> recorders(ts.size());
  std::uint64_t ticks = 0;
  bool same = true;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    untraced[k] = unit(k, &plain, nullptr);
    const Reports with_trace = unit(k, &traced, &recorders[k]);
    for (std::size_t i = 0; i < with_trace.size(); ++i) {
      same = same && same_work(untraced[k][i], with_trace[i]);
    }
    ticks += count_ticks(recorders[k].snapshot());
  }
  out.check(same, "traced sim work == untraced sim work");
  add_setup_layer_metrics(out, spans);
  out.add("control.ticks", static_cast<double>(ticks), "count", "ACES runs");
  add_sim_layer_metrics(out, untraced, plain);
  add_rung_counters(out, {});
  // The distributed runtime on the same topologies: the conformance
  // reference, and its layer numbers.
  DistLayer layer;
  std::vector<Reports> dist(ts.size());
  for (std::size_t k = 0; k < ts.size(); ++k) {
    dist[k] = traced_dist(out, ts[k], k, {FlowPolicy::kAces}, spans, &layer);
    check_partition_invariance(out, ts[k], k, dist[k][0], spans, nullptr);
  }
  layer.add_metrics(out);
  add_gap_metrics(out, pooled(ts, untraced, 0), pooled(ts, dist, 0));
  add_probe_metrics(out, ts[0], probe_seed(args.seed), spans, untraced[0][0],
                    layer);
  out.add("obs.trace_overhead", traced.wall / plain.wall, "ratio", "wall");
  return out;
}

// ===========================================================================
// dist-inproc3

Outcome run_dist_inproc3(const RunArgs& args) {
  Outcome out;
  SpanLog* spans = args.spans;
  Setup setup(paper_topology(), args.seed, spans, [](const Topology&) {});
  const Topologies ts = setup.build_all(kPaperTopologies);

  // One unit: ACES and Lock-Step on topology k.
  const auto unit = [&](std::size_t k, Timing* timing) {
    Reports reports;
    for (FlowPolicy p : kDistPolicies) {
      reports.push_back(
          timed(timing, spans, "runtime.dist.run_distributed", [&] {
            return runtime::dist::run_distributed(
                ts[k].g, ts[k].plan, dist_options(p, ts[k], kShards));
          }));
      ++out.attempted;
      check_conserved(out, ts[k], reports.back(), 1, label("dist", p, k));
    }
    return reports;
  };

  if (!args.trace) {
    const Cycles cycles = timed_cycles(out, ts.size(), args.seconds,
                                       kMinCycles, true, setup, unit);
    for (std::size_t k = 0; k < ts.size(); ++k) {
      check_partition_invariance(out, ts[k], k, cycles.first[k][0], spans,
                                 nullptr);
    }
    add_throughput_metrics(out, cycles, cycles.units, false);
    add_common_end_to_end(out, setup);
    add_quality_metrics(out, pooled(ts, cycles.first, 0));
    return out;
  }

  Timing plain;
  DistLayer layer;
  std::vector<Reports> untraced(ts.size());
  bool same = true;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    untraced[k] = unit(k, &plain);
    const Reports traced =
        traced_dist(out, ts[k], k, kDistPolicies, spans, &layer);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      same = same && same_work(untraced[k][i], traced[i]);
    }
  }
  out.check(same, "traced dist work == untraced dist work");
  std::uint64_t ticks = 0;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    check_partition_invariance(out, ts[k], k, untraced[k][0], spans, &ticks);
  }
  Timing sim_timing;
  const std::vector<Reports> ref =
      reference_sim(out, ts, spans, &sim_timing, nullptr);

  add_setup_layer_metrics(out, spans);
  out.add("control.ticks", static_cast<double>(ticks), "count", "ACES runs");
  add_sim_layer_metrics(out, ref, sim_timing);
  add_rung_counters(out, {});
  layer.add_metrics(out);
  add_gap_metrics(out, pooled(ts, untraced, 0), pooled(ts, ref, 0));
  add_probe_metrics(out, ts[0], probe_seed(args.seed), spans, ref[0][0],
                    layer);
  out.add("obs.trace_overhead", layer.timing.wall / plain.wall, "ratio",
          "wall");
  return out;
}

// ===========================================================================
// rt-ladder

namespace {

/// Quality of rung `rung`: the median over cycles of each field.
Quality median_over_cycles(const std::vector<std::vector<Pool>>& cycle_rungs,
                           std::size_t rung) {
  std::vector<double> wtput, p50, p999, drop;
  Quality m;
  m.samples = std::numeric_limits<std::uint64_t>::max();
  for (const std::vector<Pool>& rungs : cycle_rungs) {
    const Quality q = rungs[rung].quality();
    wtput.push_back(q.wtput_norm);
    p50.push_back(q.p50_ms);
    p999.push_back(q.p999_ms);
    drop.push_back(q.drop_frac);
    m.samples = std::min(m.samples, q.samples);
  }
  m.wtput_norm = median(wtput);
  m.p50_ms = median(p50);
  m.p999_ms = median(p999);
  m.drop_frac = median(drop);
  return m;
}

/// How far rung `q` is from the limits that define "sustainable": 1 at a
/// limit, above 1 beyond it. Latency: pooled ACES p50 over kLatencyLimit ×
/// the simulator's. Throughput: the shortfall of wtput_norm below the
/// simulator's, in units of the (1 − kWtputHold) share allowed.
double rung_pressure(const Quality& q, const Quality& sim) {
  return std::max(q.p50_ms / (kLatencyLimit * sim.p50_ms),
                  (sim.wtput_norm - q.wtput_norm) /
                      ((1.0 - kWtputHold) * sim.wtput_norm));
}

/// Highest time scale at which the pressure stays at most 1, interpolated
/// between the last rung that meets the limits and the first that misses
/// them, linearly in log(pressure) over log(time scale).
double sustainable_timescale(const std::vector<double>& pressure) {
  if (pressure[0] > 1.0) return kRungs[0] / pressure[0];
  for (std::size_t i = 1; i < pressure.size(); ++i) {
    if (pressure[i] <= 1.0) continue;
    const double a = std::log(kRungs[i - 1]);
    const double b = std::log(kRungs[i]);
    const double frac = -std::log(pressure[i - 1]) /
                        (std::log(pressure[i]) - std::log(pressure[i - 1]));
    return std::exp(a + (b - a) * frac);
  }
  return kRungs[std::size(kRungs) - 1];
}

}  // namespace

Outcome run_rt_ladder(const RunArgs& args) {
  Outcome out;
  SpanLog* spans = args.spans;
  Setup setup(ladder_topology(), args.seed, spans, [](const Topology&) {});
  const Topologies ts = setup.build_all(kLadderTopologies);
  // The threaded runtime skips a control tick when its node thread runs
  // late, so its tick count varies run to run; the exact count comes from
  // the simulator's ACES runs on the same topologies.
  Timing sim_timing;
  std::vector<obs::ControlTraceRecorder> ref_ticks(args.trace ? ts.size() : 0);
  const std::vector<Reports> ref = reference_sim(
      out, ts, spans, &sim_timing, args.trace ? &ref_ticks : nullptr);
  const Quality sim_q = pooled(ts, ref, 0);

  // One unit: topology k up the ladder. Every run of a timed cycle is
  // pooled into that cycle's Pool of its rung; `counters` (one registry
  // per rung) is the traced run's sink. `top_rung` keeps the untraced
  // runs' timing at the top rung.
  std::vector<std::vector<Pool>> cycle_rungs;  // [cycle][rung]
  Units top_rung(ts.size());
  const auto unit = [&](std::size_t k, Timing* timing,
                        std::vector<obs::CounterRegistry>* counters) {
    Reports reports;
    if (k == 0) cycle_rungs.emplace_back(std::size(kRungs));
    for (std::size_t i = 0; i < std::size(kRungs); ++i) {
      runtime::RuntimeOptions o = runtime_options(kRungs[i], ts[k]);
      if (counters != nullptr) o.counters = &(*counters)[i];
      Timing rung;
      reports.push_back(timed(&rung, spans, "runtime.run_runtime", [&] {
        return runtime::run_runtime(ts[k].g, ts[k].plan, o);
      }));
      timing->add(rung);
      if (counters == nullptr && i + 1 == std::size(kRungs)) {
        top_rung[k].push_back(rung);
      }
      ++out.attempted;
      cycle_rungs.back()[i].add(reports.back(), ts[k], k);
      const std::string what =
          "runtime x" + std::to_string(static_cast<int>(kRungs[i])) +
          " topology " + std::to_string(k);
      // A staging burst holds up to one batch beyond the channel bound.
      check_conserved(out, ts[k], reports.back(), o.batch + 1, what);
      // Below the knee every egress PE must emit; past it a starved PE is
      // the overload the ladder measures, not an error.
      if (i == 0) {
        const auto& outputs = reports.back().egress_outputs;
        bool every_egress = !outputs.empty();
        for (std::uint64_t n : outputs) every_egress = every_egress && n > 0;
        out.check(every_egress, "every egress PE emits, " + what);
      }
    }
    return reports;
  };

  if (!args.trace) {
    const Cycles cycles = timed_cycles(
        out, ts.size(), args.seconds, kMinCycles, false, setup,
        [&](std::size_t k, Timing* t) { return unit(k, t, nullptr); });
    // Every quality number is the median over cycles of that cycle's value,
    // like the timing: one cycle in a slow moment of the VM moves it little.
    std::vector<double> pressure;
    std::ostringstream note;
    note << "pressure" << std::setprecision(3);
    for (std::size_t i = 0; i < std::size(kRungs); ++i) {
      pressure.push_back(
          rung_pressure(median_over_cycles(cycle_rungs, i), sim_q));
      note << ' ' << pressure.back();
    }
    add_throughput_metrics(out, cycles, top_rung, true);
    out.add("sustainable_timescale", sustainable_timescale(pressure),
            "virt_s/s", note.str());
    add_common_end_to_end(out, setup);
    // Latency at the lowest rung; drops over the whole ladder, where the
    // rungs past the knee make them frequent enough to measure steadily.
    Quality q = median_over_cycles(cycle_rungs, 0);
    std::vector<double> drop;
    for (const std::vector<Pool>& rungs : cycle_rungs) {
      double dropped = 0.0;
      double offered = 0.0;
      for (const Pool& rung : rungs) {
        dropped += rung.dropped;
        offered += rung.offered;
      }
      drop.push_back(dropped / offered);
    }
    q.drop_frac = median(drop);
    add_quality_metrics(out, q);
    return out;
  }

  Timing plain;
  Timing traced;
  std::vector<Reports> untraced(ts.size());
  std::vector<obs::CounterRegistry> registries(std::size(kRungs));
  for (std::size_t k = 0; k < ts.size(); ++k) {
    untraced[k] = unit(k, &plain, nullptr);
    unit(k, &traced, &registries);
  }
  std::uint64_t ticks = 0;
  for (const auto& r : ref_ticks) ticks += count_ticks(r.snapshot());
  RungCounters counters;
  for (std::size_t i = 0; i < std::size(kRungs); ++i) {
    for (const auto& [name, value] : registries[i].snapshot().counters) {
      counters[kRungs[i]][name] = value;
    }
  }

  add_setup_layer_metrics(out, spans);
  out.add("control.ticks", static_cast<double>(ticks), "count",
          "simulator ACES runs");
  add_sim_layer_metrics(out, ref, sim_timing);
  add_rung_counters(out, counters);
  DistLayer layer;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    traced_dist(out, ts[k], k, {FlowPolicy::kAces}, spans, &layer);
  }
  layer.add_metrics(out);
  add_gap_metrics(out, pooled(ts, untraced, 0), sim_q);
  add_probe_metrics(out, ts[0], probe_seed(args.seed), spans, ref[0][0],
                    layer);
  // The threaded runtime is wall-paced, so its wall time cannot show the
  // cost of tracing; compare process CPU time instead.
  out.add("obs.trace_overhead", traced.cpu / plain.cpu, "ratio", "cpu");
  return out;
}

}  // namespace perfbench
