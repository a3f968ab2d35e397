#include "control/node_controller.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/check.h"

namespace aces::control {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using graph::PeDescriptor;
using graph::PeKind;
using graph::ProcessingGraph;

/// node0 hosts two worker PEs; each feeds an egress on node1. Gives a
/// two-PE contention domain with downstream feedback edges.
struct Fixture {
  ProcessingGraph g;
  NodeId node0;
  PeId pe_a, pe_b;

  Fixture() {
    node0 = g.add_node({1.0, "n0"});
    const NodeId node1 = g.add_node({1.0, "n1"});
    PeDescriptor worker;
    worker.kind = PeKind::kIntermediate;
    worker.node = node0;
    worker.buffer_capacity = 50;
    pe_a = g.add_pe(worker);
    pe_b = g.add_pe(worker);
    PeDescriptor egress;
    egress.kind = PeKind::kEgress;
    egress.node = node1;
    const PeId e1 = g.add_pe(egress);
    const PeId e2 = g.add_pe(egress);
    g.add_edge(pe_a, e1);
    g.add_edge(pe_b, e2);
  }

  [[nodiscard]] opt::AllocationPlan plan(double cpu_a, double cpu_b) const {
    return opt::evaluate_allocation(g, {cpu_a, cpu_b, 0.2, 0.2});
  }
};

PeTickInput busy_input(double occupancy) {
  PeTickInput in;
  in.buffer_occupancy = occupancy;
  in.arrived_sdos = occupancy / 2.0;
  return in;
}

TEST(NodeControllerTest, LocalPesComeFromPlacement) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.3, 0.3), ControllerConfig{});
  ASSERT_EQ(c.local_pes().size(), 2u);
  EXPECT_EQ(c.local_pes()[0], f.pe_a);
  EXPECT_DOUBLE_EQ(c.cpu_target(0), 0.3);
}

TEST(NodeControllerTest, TickValidatesInputs) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.3, 0.3), ControllerConfig{});
  std::vector<PeTickInput> wrong_size(1);
  EXPECT_THROW(c.tick(0.1, wrong_size), CheckFailure);
  std::vector<PeTickInput> ok(2);
  EXPECT_THROW(c.tick(0.0, ok), CheckFailure);
}

TEST(NodeControllerTest, UdpSharesAreStaticTargets) {
  Fixture f;
  ControllerConfig config;
  config.policy = FlowPolicy::kUdp;
  NodeController c(f.g, f.node0, f.plan(0.25, 0.55), config);
  for (int tick = 0; tick < 5; ++tick) {
    const auto out = c.tick(0.1, {busy_input(40.0), busy_input(0.0)});
    EXPECT_DOUBLE_EQ(out[0].cpu_share, 0.25);
    EXPECT_DOUBLE_EQ(out[1].cpu_share, 0.55);
    EXPECT_TRUE(std::isinf(out[0].advertised_rmax));
  }
}

TEST(NodeControllerTest, UdpOversubscribedTargetsRescale) {
  Fixture f;
  ControllerConfig config;
  config.policy = FlowPolicy::kUdp;
  NodeController c(f.g, f.node0, f.plan(0.8, 0.8), config);
  const auto out = c.tick(0.1, {busy_input(10.0), busy_input(10.0)});
  EXPECT_NEAR(out[0].cpu_share, 0.5, 1e-12);
  EXPECT_NEAR(out[1].cpu_share, 0.5, 1e-12);
}

TEST(NodeControllerTest, AcesSharesNeverExceedCapacity) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.5, 0.5), ControllerConfig{});
  for (int tick = 0; tick < 20; ++tick) {
    const auto out = c.tick(0.1, {busy_input(50.0), busy_input(50.0)});
    EXPECT_LE(out[0].cpu_share + out[1].cpu_share, 1.0 + 1e-9);
  }
}

TEST(NodeControllerTest, AcesOccupancyDrivesShares) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.4, 0.4), ControllerConfig{});
  // PE a congested, PE b idle → a's share must dominate.
  const auto out = c.tick(0.1, {busy_input(45.0), busy_input(0.0)});
  EXPECT_GT(out[0].cpu_share, 2.0 * out[1].cpu_share);
}

TEST(NodeControllerTest, AcesTokenDebtZeroesTheCap) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.2, 0.2), ControllerConfig{});
  // Burn far more CPU than the bucket accrues until deep in debt.
  PeTickInput hog = busy_input(50.0);
  hog.cpu_seconds_used = 0.5;  // per 0.1 s tick at target 0.2 → heavy debt
  std::vector<double> shares;
  for (int tick = 0; tick < 10; ++tick) {
    const auto out = c.tick(0.1, {hog, busy_input(0.0)});
    shares.push_back(out[0].cpu_share);
  }
  EXPECT_DOUBLE_EQ(c.tokens(0), c.tokens(0));  // introspection callable
  EXPECT_LT(c.tokens(0), 0.0);
  EXPECT_DOUBLE_EQ(shares.back(), 0.0);
}

TEST(NodeControllerTest, AcesHonoursEqEightDownstreamBound) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.9, 0.05), ControllerConfig{});
  PeTickInput in = busy_input(50.0);
  in.downstream_rmax = 10.0;  // SDO/s of output
  const auto out = c.tick(0.1, {in, busy_input(0.0)});
  const auto& d = f.g.pe(f.pe_a);
  const double expected_cap =
      10.0 / d.selectivity * d.mean_service_time();  // T̂ prior
  EXPECT_LE(out[0].cpu_share, expected_cap + 1e-9);
}

TEST(NodeControllerTest, AcesAdvertisesRhoAtSetPoint) {
  Fixture f;
  ControllerConfig config;
  NodeController c(f.g, f.node0, f.plan(0.3, 0.3), config);
  // b == b0 (25 = 0.5 × 50) and empty mismatch history → advert == ρ ==
  // share / T̂.
  const auto out = c.tick(0.1, {busy_input(25.0), busy_input(25.0)});
  const double t_hat = f.g.pe(f.pe_a).mean_service_time();
  EXPECT_NEAR(out[0].advertised_rmax, out[0].cpu_share / t_hat,
              out[0].cpu_share / t_hat * 1e-6);
}

TEST(NodeControllerTest, AcesAdvertHardCapAtFullBuffer) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.3, 0.3), ControllerConfig{});
  // Full buffer: advert cannot exceed the drain rate ρ (free space is 0).
  const auto out = c.tick(0.1, {busy_input(50.0), busy_input(25.0)});
  const double t_hat = f.g.pe(f.pe_a).mean_service_time();
  EXPECT_LE(out[0].advertised_rmax, out[0].cpu_share / t_hat + 1e-9);
}

TEST(NodeControllerTest, LockStepBlockedPeSleepsAndCpuMovesOver) {
  Fixture f;
  ControllerConfig config;
  config.policy = FlowPolicy::kLockStep;
  NodeController c(f.g, f.node0, f.plan(0.5, 0.5), config);
  PeTickInput blocked = busy_input(50.0);
  blocked.output_blocked = true;
  const auto both_free = c.tick(0.1, {busy_input(50.0), busy_input(50.0)});
  const auto one_blocked = c.tick(0.1, {blocked, busy_input(50.0)});
  EXPECT_DOUBLE_EQ(one_blocked[0].cpu_share, 0.0);
  EXPECT_GT(one_blocked[1].cpu_share, both_free[1].cpu_share);
  EXPECT_TRUE(std::isinf(one_blocked[0].advertised_rmax));
}

TEST(NodeControllerTest, ServiceEstimateTracksReports) {
  Fixture f;
  ControllerConfig config;
  config.service_ewma_alpha = 0.5;
  NodeController c(f.g, f.node0, f.plan(0.3, 0.3), config);
  const double prior = c.service_estimate(0);
  PeTickInput in = busy_input(10.0);
  in.processed_sdos = 10.0;
  in.cpu_seconds_used = 10.0 * 0.02;  // 20 ms per SDO observed
  c.tick(0.1, {in, busy_input(0.0)});
  EXPECT_NEAR(c.service_estimate(0), 0.5 * prior + 0.5 * 0.02, 1e-12);
}

TEST(NodeControllerTest, SetPlanRetargetsTokenAccrual) {
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.3, 0.3), ControllerConfig{});
  c.set_plan(f.plan(0.1, 0.6));
  EXPECT_DOUBLE_EQ(c.cpu_target(0), 0.1);
  EXPECT_DOUBLE_EQ(c.cpu_target(1), 0.6);
}

TEST(NodeControllerTest, MeasuredRhoUsesCompletions) {
  Fixture f;
  ControllerConfig config;
  config.rho_source = RhoSource::kMeasured;
  NodeController c(f.g, f.node0, f.plan(0.3, 0.3), config);
  PeTickInput in = busy_input(25.0);  // at set-point
  in.processed_sdos = 12.0;
  const auto out = c.tick(0.1, {in, busy_input(25.0)});
  EXPECT_NEAR(out[0].advertised_rmax, 12.0 / 0.1, 1.0);
}

TEST(NodeControllerTest, ConfigValidation) {
  Fixture f;
  ControllerConfig config;
  config.feedback_delay_ticks = -1;
  EXPECT_THROW(NodeController(f.g, f.node0, f.plan(0.3, 0.3), config),
               CheckFailure);
  config = {};
  config.b0_fraction = 0.0;
  EXPECT_THROW(NodeController(f.g, f.node0, f.plan(0.3, 0.3), config),
               CheckFailure);
  config = {};
  opt::AllocationPlan bad;
  bad.pe.resize(1);
  EXPECT_THROW(NodeController(f.g, f.node0, bad, config), CheckFailure);
}

TEST(NodeControllerTest, TargetProportionalWeightsIgnoreOccupancy) {
  // With kTargetProportional, equal targets split contended CPU equally
  // even when one PE is far more congested (caps permitting).
  Fixture f;
  ControllerConfig config;
  config.cpu_control = CpuControlKind::kTargetProportional;
  NodeController c(f.g, f.node0, f.plan(0.5, 0.5), config);
  PeTickInput congested = busy_input(50.0);
  PeTickInput lighter = busy_input(20.0);
  const auto out = c.tick(0.1, {congested, lighter});
  // Under occupancy weighting the first PE would get > 2x the second; with
  // target weights the split tracks the (equal) targets up to caps.
  EXPECT_LT(out[0].cpu_share, 2.0 * out[1].cpu_share);
  EXPECT_GT(out[1].cpu_share, 0.0);
}

TEST(NodeControllerTest, CpuControlKindNames) {
  EXPECT_STREQ(to_string(CpuControlKind::kOccupancyProportional),
               "occupancy");
  EXPECT_STREQ(to_string(CpuControlKind::kTargetProportional), "target");
}

TEST(NodeControllerTest, LongRunAcesUsageMatchesTargetUnderSaturation) {
  // A perpetually backlogged PE may burst above its target but its
  // *average* share converges to the token accrual rate (paper §V-D).
  Fixture f;
  NodeController c(f.g, f.node0, f.plan(0.25, 0.25), ControllerConfig{});
  double total_share = 0.0;
  int ticks = 0;
  double share = 0.25;
  for (int tick = 0; tick < 2000; ++tick) {
    PeTickInput in = busy_input(50.0);
    // The PE consumes exactly what it was granted last tick.
    in.cpu_seconds_used = share * 0.1;
    in.processed_sdos = in.cpu_seconds_used /
                        f.g.pe(f.pe_a).mean_service_time();
    const auto out = c.tick(0.1, {in, busy_input(0.0)});
    share = out[0].cpu_share;
    if (tick >= 200) {  // skip the bucket-draining transient
      total_share += share;
      ++ticks;
    }
  }
  EXPECT_NEAR(total_share / ticks, 0.25, 0.02);
}

TEST(NodeControllerTest, ResetStateMatchesFreshControllerTickForTick) {
  // The LQR gains are designed once per controller and reused on restart:
  // after reset_state() the flow controllers must act exactly as a freshly
  // built controller's do, over a long run with delayed feedback.
  Fixture f;
  ControllerConfig config;
  config.policy = FlowPolicy::kAces;
  config.feedback_delay_ticks = 2;
  const opt::AllocationPlan plan = f.plan(0.3, 0.4);
  const auto input = [&f](int tick, std::size_t pe) {
    PeTickInput in;
    in.buffer_occupancy = 25.0 + 20.0 * std::sin(0.37 * tick + pe);
    in.arrived_sdos = 2.0 + std::fmod(0.7 * tick, 3.0);
    in.processed_sdos = 1.5 + std::fmod(0.3 * tick + pe, 2.0);
    in.cpu_seconds_used = in.processed_sdos *
                          f.g.pe(pe == 0 ? f.pe_a : f.pe_b).mean_service_time();
    in.downstream_rmax = 10.0 + 5.0 * std::cos(0.11 * tick);
    return in;
  };
  NodeController restarted(f.g, f.node0, plan, config);
  for (int tick = 0; tick < 50; ++tick) {
    (void)restarted.tick(0.1, {input(tick + 1000, 0), input(tick + 1000, 1)});
  }
  restarted.reset_state();
  NodeController fresh(f.g, f.node0, plan, config);
  for (int tick = 0; tick < 200; ++tick) {
    const std::vector<PeTickInput> in{input(tick, 0), input(tick, 1)};
    const auto a = restarted.tick(0.1, in);
    const auto b = fresh.tick(0.1, in);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].cpu_share, b[i].cpu_share) << "tick " << tick;
      ASSERT_EQ(a[i].advertised_rmax, b[i].advertised_rmax) << "tick " << tick;
    }
  }
}

TEST(NodeControllerTest, SharedGainsTickLikeOwnDesign) {
  // Engines design the LQR gains once per run and hand them to every
  // controller; that must not change a single decision.
  Fixture f;
  ControllerConfig config;
  config.policy = FlowPolicy::kAces;
  config.feedback_delay_ticks = 2;
  const opt::AllocationPlan plan = f.plan(0.3, 0.4);
  const FlowGains gains = design_flow_gains(config);
  NodeController shared(f.g, f.node0, plan, config, &gains);
  NodeController own(f.g, f.node0, plan, config);
  for (int tick = 0; tick < 200; ++tick) {
    std::vector<PeTickInput> in(2);
    for (std::size_t pe = 0; pe < in.size(); ++pe) {
      in[pe].buffer_occupancy = 25.0 + 20.0 * std::sin(0.37 * tick + pe);
      in[pe].arrived_sdos = 2.0 + std::fmod(0.7 * tick, 3.0);
      in[pe].processed_sdos = 1.5 + std::fmod(0.3 * tick + pe, 2.0);
      in[pe].cpu_seconds_used = 0.01 * in[pe].processed_sdos;
      in[pe].downstream_rmax = 10.0 + 5.0 * std::cos(0.11 * tick);
    }
    const auto a = shared.tick(0.1, in);
    const auto b = own.tick(0.1, in);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].cpu_share, b[i].cpu_share) << "tick " << tick;
      ASSERT_EQ(a[i].advertised_rmax, b[i].advertised_rmax) << "tick " << tick;
    }
  }
}

TEST(NodeControllerTest, RejectsGainsForAnotherFeedbackDelay) {
  Fixture f;
  ControllerConfig config;
  config.feedback_delay_ticks = 2;
  ControllerConfig other = config;
  other.feedback_delay_ticks = 1;
  const FlowGains gains = design_flow_gains(other);
  EXPECT_THROW(NodeController(f.g, f.node0, f.plan(0.3, 0.3), config, &gains),
               CheckFailure);
}

}  // namespace
}  // namespace aces::control
