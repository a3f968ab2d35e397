// Cross-engine trace conformance: the simulator, the threaded runtime and
// the distributed runtime trace the same control-plane facts, because all
// three assemble their TickRecords in one PE kernel (sim/pe_kernel.h).
//
//  * Under a node crash, UDP and Lock-Step flag no stale advertisement on
//    any engine (their controllers ignore downstream r_max, so the
//    staleness clamp is gated off), while ACES flags some on every engine.
//  * A stalled PE's records carry cpu_share == 0 on every engine: the
//    traced share is the share the PE actually gets.
//
// The threaded runtime runs at a low time scale; it is nondeterministic,
// so the assertions are about flags and shares, never about counts.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/config.h"
#include "fault/fault_spec.h"
#include "graph/topology_generator.h"
#include "obs/cluster_aggregate.h"
#include "obs/trace.h"
#include "opt/global_optimizer.h"
#include "runtime/dist_coordinator.h"
#include "runtime/dist_options.h"
#include "runtime/dist_worker.h"
#include "runtime/runtime_engine.h"
#include "sim/stream_simulation.h"

namespace aces {
namespace {

using control::FlowPolicy;

constexpr double kDuration = 8.0;
constexpr double kWarmup = 1.0;
constexpr double kStaleness = 1.0;
constexpr std::uint64_t kSeed = 5;
/// The stalled PE of the stall scenario.
constexpr std::uint32_t kStalledPe = 3;

enum class Engine { kSim, kThreaded, kDist };

std::string engine_name(Engine e) {
  switch (e) {
    case Engine::kSim: return "simulator";
    case Engine::kThreaded: return "threaded";
    case Engine::kDist: return "distributed";
  }
  return "?";
}

/// Eight PEs on three nodes (the CI smoke topology, `aces generate --seed=7
/// --nodes=3 --ingress=2 --intermediate=4 --egress=2`).
graph::ProcessingGraph test_graph() {
  graph::TopologyParams p;
  p.num_nodes = 3;
  p.num_ingress = 2;
  p.num_intermediate = 4;
  p.num_egress = 2;
  return generate_topology(p, 7);
}

/// The control trace of one run of `g` on `engine`.
std::vector<obs::TickRecord> trace_run(Engine engine,
                                       const graph::ProcessingGraph& g,
                                       FlowPolicy policy,
                                       const std::string& faults) {
  const opt::AllocationPlan plan = opt::optimize(g);
  control::ControllerConfig controller;
  controller.policy = policy;
  controller.advert_staleness_timeout = kStaleness;
  const fault::FaultSchedule schedule = fault::parse_fault_spec(faults);
  switch (engine) {
    case Engine::kSim: {
      obs::ControlTraceRecorder recorder;
      sim::SimOptions o;
      o.duration = kDuration;
      o.warmup = kWarmup;
      o.seed = kSeed;
      o.controller = controller;
      o.faults = schedule;
      o.trace = &recorder;
      sim::simulate(g, plan, o);
      return recorder.snapshot();
    }
    case Engine::kThreaded: {
      obs::ControlTraceRecorder recorder;
      runtime::RuntimeOptions o;
      o.duration = kDuration;
      o.warmup = kWarmup;
      o.seed = kSeed;
      o.time_scale = 10.0;
      o.controller = controller;
      o.faults = schedule;
      o.trace = &recorder;
      runtime::run_runtime(g, plan, o);
      return recorder.snapshot();
    }
    case Engine::kDist: {
      obs::ClusterAggregator aggregator;
      runtime::dist::DistOptions o;
      o.duration = kDuration;
      o.warmup = kWarmup;
      o.seed = kSeed;
      o.processes = 2;
      o.transport = runtime::transport::TransportKind::kInProc;
      o.controller = controller;
      o.faults = schedule;
      o.record_trace = true;
      o.aggregator = &aggregator;
      runtime::dist::run_distributed(g, plan, o);
      return aggregator.trace_records();
    }
  }
  return {};
}

std::size_t count_flag(const std::vector<obs::TickRecord>& records,
                       std::uint8_t flag) {
  std::size_t n = 0;
  for (const obs::TickRecord& r : records) n += (r.fault_flags & flag) != 0;
  return n;
}

class EngineConformanceTest : public ::testing::TestWithParam<Engine> {};

TEST_P(EngineConformanceTest, StaleAdvertsOnlyUnderFlowControl) {
  const graph::ProcessingGraph g = test_graph();
  // Node 2 hosts PE 3, the only consumer of PEs 1 and 2: while it is
  // down, their every downstream advertisement goes stale.
  const std::string crash = "crash node=2 at=2 until=5";
  for (const FlowPolicy policy : {FlowPolicy::kUdp, FlowPolicy::kLockStep}) {
    const auto records = trace_run(GetParam(), g, policy, crash);
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(count_flag(records, obs::kFaultAdvertStale), 0u)
        << engine_name(GetParam()) << " flags stale adverts under a policy "
        << "that never reads them (policy " << static_cast<int>(policy)
        << ")";
  }
  const auto aces = trace_run(GetParam(), g, FlowPolicy::kAces, crash);
  EXPECT_GT(count_flag(aces, obs::kFaultAdvertStale), 0u)
      << engine_name(GetParam()) << " lost the ACES staleness clamp";
}

TEST_P(EngineConformanceTest, StalledPeTracesZeroShare) {
  const graph::ProcessingGraph g = test_graph();
  ASSERT_LT(kStalledPe, g.pe_count());
  const auto records =
      trace_run(GetParam(), g, FlowPolicy::kAces,
                "stall pe=" + std::to_string(kStalledPe) + " at=2 for=3");
  std::size_t stalled = 0;
  for (const obs::TickRecord& r : records) {
    if (r.pe != kStalledPe || (r.fault_flags & obs::kFaultPeStalled) == 0) {
      continue;
    }
    ++stalled;
    EXPECT_EQ(r.cpu_share, 0.0)
        << engine_name(GetParam()) << " at t=" << r.time;
  }
  EXPECT_GT(stalled, 0u) << engine_name(GetParam())
                         << " traced no stalled record";
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineConformanceTest,
                         ::testing::Values(Engine::kSim, Engine::kThreaded,
                                           Engine::kDist),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           std::string name = engine_name(info.param);
                           name[0] = static_cast<char>(name[0] - 'a' + 'A');
                           return name;
                         });

}  // namespace
}  // namespace aces

int main(int argc, char** argv) {
  // Socket-transport workers re-execute test binaries; dispatch them before
  // gtest parses flags (these runs are in-process, but the harness links
  // the worker entry either way).
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
