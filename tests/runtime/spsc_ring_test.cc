// SPSC ring contract and torture tests.
//
// The ring replaces the mutex channel on single-producer PE inputs, so it
// must honor the exact Channel API contract (FIFO, logical capacity,
// close semantics, timeouts) *and* survive a two-thread publish/observe
// torture with no tearing or reordering — the seqlock-test idiom: every
// pushed record carries internal redundancy the consumer can audit.
//
// The differential tests at the bottom pin down the batching claim the CI
// smoke step also enforces end to end: for a FIFO, the consumed sequence
// (and therefore its fingerprint) is independent of backend and batch
// size; batching may only change how many atomic operations were spent.
#include "runtime/spsc_ring.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/topology_generator.h"
#include "harness/experiment.h"
#include "opt/global_optimizer.h"
#include "runtime/channel.h"
#include "runtime/runtime_engine.h"
#include "sim/stream_simulation.h"

namespace aces::runtime {
namespace {

using namespace std::chrono_literals;

TEST(SpscRingTest, PushPopRoundTrip) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.try_pop().value(), 1);  // FIFO
  EXPECT_EQ(ring.try_pop().value(), 2);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRingTest, LogicalCapacityEnforcedForNonPowerOfTwo) {
  // 20 rounds up to 32 slots; the *logical* capacity must still be 20 —
  // PE buffer bounds are model parameters and drive drop behaviour.
  SpscRing<int> ring(20);
  EXPECT_EQ(ring.capacity(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size(), 20u);
  EXPECT_EQ(ring.free_slots(), 0u);
}

TEST(SpscRingTest, CapacityOneEdge) {
  SpscRing<int> ring(1);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_TRUE(ring.try_push(7));
  EXPECT_FALSE(ring.try_push(8));
  EXPECT_EQ(ring.try_pop().value(), 7);
  EXPECT_FALSE(ring.try_pop().has_value());
  // Repeat across the wrap boundary many times.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ring.try_push(i));
    EXPECT_FALSE(ring.try_push(-1));
    EXPECT_EQ(ring.try_pop().value(), i);
  }
}

TEST(SpscRingTest, WraparoundPreservesFifoOrder) {
  SpscRing<int> ring(3);  // 4 slots; indices wrap every 4 pushes
  int produced = 0;
  int consumed = 0;
  for (int round = 0; round < 500; ++round) {
    while (ring.try_push(produced)) ++produced;
    while (auto v = ring.try_pop()) {
      EXPECT_EQ(*v, consumed);
      ++consumed;
    }
  }
  EXPECT_EQ(produced, consumed);
  EXPECT_GE(produced, 1500);
}

TEST(SpscRingTest, ZeroCapacityRejected) {
  EXPECT_THROW(SpscRing<int>(0), CheckFailure);
}

TEST(SpscRingTest, MoveOnlyPayloadsSupported) {
  SpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  auto out = ring.try_pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 7);
}

TEST(SpscRingTest, PushWaitTimesOutWhenFull) {
  SpscRing<int> ring(1);
  ring.try_push(1);
  EXPECT_FALSE(ring.push_wait(2, 5ms));
}

TEST(SpscRingTest, PopWaitTimesOutWhenEmpty) {
  SpscRing<int> ring(1);
  EXPECT_FALSE(ring.pop_wait(5ms).has_value());
}

TEST(SpscRingTest, ParkUnparkUnderStalledConsumer) {
  // The producer fills the ring and parks; the consumer is "stalled"
  // (asleep, the fault-injection shape for a wedged operator) well past
  // the producer's spin bound, so the slow path must carry the handoff.
  SpscRing<int> ring(1);
  ring.try_push(0);
  std::thread consumer([&] {
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(ring.try_pop().value(), 0);
  });
  EXPECT_TRUE(ring.push_wait(1, 2s));
  consumer.join();
  EXPECT_EQ(ring.try_pop().value(), 1);
}

TEST(SpscRingTest, ParkUnparkUnderStalledProducer) {
  SpscRing<int> ring(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(20ms);
    EXPECT_TRUE(ring.try_push(42));
  });
  EXPECT_EQ(ring.pop_wait(2s).value(), 42);
  producer.join();
}

TEST(SpscRingTest, CloseUnblocksWaitersAndRejectsPushes) {
  SpscRing<int> ring(1);
  std::thread waiter([&] { EXPECT_FALSE(ring.pop_wait(5s).has_value()); });
  std::this_thread::sleep_for(10ms);
  ring.close();
  waiter.join();
  EXPECT_FALSE(ring.try_push(1));
  EXPECT_TRUE(ring.closed());
}

TEST(SpscRingTest, CloseStillDrainsBacklog) {
  SpscRing<int> ring(4);
  ring.try_push(1);
  ring.try_push(2);
  ring.close();
  EXPECT_EQ(ring.try_pop().value(), 1);
  EXPECT_EQ(ring.pop_wait(1ms).value(), 2);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRingTest, TryPushNAcceptsExactlyTheFreePrefix) {
  SpscRing<int> ring(5);
  std::array<int, 8> batch = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(ring.try_push_n(batch.data(), batch.size()), 5u);
  EXPECT_EQ(ring.try_push_n(batch.data(), batch.size()), 0u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.try_pop().value(), i);
}

TEST(SpscRingTest, PopBurstDrainsInOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ring.try_push(i);
  std::array<int, 4> out{};
  EXPECT_EQ(ring.pop_burst(out.data(), out.size()), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.pop_burst(out.data(), out.size()), 2u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(ring.pop_burst(out.data(), out.size()), 0u);
}

/// Tearing/ordering oracle record: three derived fields the consumer can
/// audit. A torn read (slot observed half-written, i.e. a publish fence
/// missing) breaks the internal redundancy; a reordered or duplicated
/// delivery breaks the monotonic seq.
struct Oracle {
  std::uint64_t seq = 0;
  std::uint64_t twisted = 0;   // seq * 0x9E3779B97F4A7C15
  std::uint64_t inverted = 0;  // ~seq
  [[nodiscard]] bool consistent() const {
    return twisted == seq * 0x9E3779B97F4A7C15ull && inverted == ~seq;
  }
  static Oracle make(std::uint64_t s) {
    return Oracle{s, s * 0x9E3779B97F4A7C15ull, ~s};
  }
};

TEST(SpscRingTest, TwoThreadTortureNoTearingNoReordering) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<Oracle> ring(64);
  std::atomic<bool> failed{false};
  std::thread producer([&] {
    for (std::uint64_t s = 0; s < kCount;) {
      if (ring.try_push(Oracle::make(s))) {
        ++s;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expect = 0;
  while (expect < kCount) {
    auto rec = ring.pop_wait(5s);
    ASSERT_TRUE(rec.has_value()) << "lost records at seq " << expect;
    if (!rec->consistent() || rec->seq != expect) {
      failed.store(true);
      ADD_FAILURE() << "torn or reordered record: seq=" << rec->seq
                    << " expected=" << expect;
      break;
    }
    ++expect;
  }
  producer.join();
  EXPECT_FALSE(failed.load());
}

TEST(SpscRingTest, TwoThreadTortureBatchedEndpoints) {
  // Same oracle, but both sides use the batched entry points — exercises
  // the multi-slot copy windows around each single index publish.
  constexpr std::uint64_t kCount = 200000;
  constexpr std::size_t kBatch = 7;  // non-power-of-two on purpose
  SpscRing<Oracle> ring(64);
  std::thread producer([&] {
    std::array<Oracle, kBatch> batch;
    std::uint64_t next = 0;
    while (next < kCount) {
      const std::size_t want =
          std::min<std::uint64_t>(kBatch, kCount - next);
      for (std::size_t i = 0; i < want; ++i)
        batch[i] = Oracle::make(next + i);
      std::size_t sent = 0;
      while (sent < want) {
        const std::size_t k =
            ring.try_push_n(batch.data() + sent, want - sent);
        if (k == 0) std::this_thread::yield();
        sent += k;
      }
      next += want;
    }
  });
  std::array<Oracle, kBatch> burst;
  std::uint64_t expect = 0;
  auto deadline = std::chrono::steady_clock::now() + 30s;
  while (expect < kCount) {
    const std::size_t k = ring.pop_burst(burst.data(), burst.size());
    if (k == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "consumer starved at seq " << expect;
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(burst[i].consistent())
          << "torn record at seq " << burst[i].seq;
      ASSERT_EQ(burst[i].seq, expect);
      ++expect;
    }
  }
  producer.join();
}

// ---------------------------------------------------------------------------
// Differential: backend and batch size must not change what is delivered.

/// FNV-1a over the consumed sequence — the same fingerprint idea the CI
/// bench smoke asserts across --batch settings.
std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Deterministic single-threaded op script driven over any backend via
/// generic lambdas: interleaved bursts of pushes and pops with varying
/// sizes. Returns (accepted count, fingerprint of consumed values).
template <typename Q>
std::pair<std::uint64_t, std::uint64_t> run_script(Q& q, std::size_t batch) {
  std::uint64_t accepted = 0;
  std::uint64_t fp = 0xCBF29CE484222325ull;
  std::uint64_t next_value = 0;
  std::vector<std::uint64_t> buf(std::max<std::size_t>(batch, 1));
  // Push/pop phase lengths cycle deterministically; some phases overflow
  // the queue so partial acceptance is exercised too.
  for (int round = 0; round < 400; ++round) {
    const std::size_t pushes = 1 + (round * 7) % 13;
    // The phase's value range is fixed up front so the values offered are
    // identical regardless of how `batch` chunks them; unaccepted values
    // are "dropped", same as the engine. Any chunking accepts exactly the
    // first free_slots values, so the accepted set is chunking-invariant.
    const std::uint64_t base = next_value;
    next_value += pushes;
    std::size_t offered = 0;
    while (offered < pushes) {
      const std::size_t n =
          std::min<std::size_t>(batch, pushes - offered);
      for (std::size_t i = 0; i < n; ++i) buf[i] = base + offered + i;
      const std::size_t k = q.try_push_n(buf.data(), n);
      accepted += k;
      offered += n;
      if (k < n) break;  // queue full: the rest of the phase drops
    }
    const std::size_t pops = 1 + (round * 5) % 11;
    std::size_t drained = 0;
    while (drained < pops) {
      const std::size_t n = std::min<std::size_t>(batch, pops - drained);
      const std::size_t k = q.pop_burst(buf.data(), n);
      if (k == 0) break;
      for (std::size_t i = 0; i < k; ++i) fp = fnv1a_step(fp, buf[i]);
      drained += k;
    }
  }
  // Drain the tail so the fingerprint covers every accepted value.
  while (auto v = q.try_pop()) fp = fnv1a_step(fp, *v);
  return {accepted, fp};
}

TEST(SpscRingTest, DifferentialRingVsChannelAcrossBatchSizes) {
  // All (backend × batch) combinations must accept the same values and
  // consume them in the same order. The mutex channel is the reference.
  Channel<std::uint64_t> reference(20);
  const auto expected = run_script(reference, 1);
  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                            std::size_t{16}}) {
    SpscRing<std::uint64_t> ring(20);
    const auto ring_result = run_script(ring, batch);
    EXPECT_EQ(ring_result.first, expected.first)
        << "ring batch=" << batch << " accepted a different prefix";
    EXPECT_EQ(ring_result.second, expected.second)
        << "ring batch=" << batch << " consumed a different sequence";
    Channel<std::uint64_t> channel(20);
    const auto chan_result = run_script(channel, batch);
    EXPECT_EQ(chan_result.first, expected.first);
    EXPECT_EQ(chan_result.second, expected.second);
  }
}

// ---------------------------------------------------------------------------
// Engine-level differential: batching on vs off vs the simulator.

TEST(SpscRingTest, SimVsRuntimeDifferentialWithBatchingOn) {
  // The ring + batched delivery must keep the threaded runtime inside the
  // same envelope as the per-SDO path: both batch=1 and batch=8 legs agree
  // with the simulator's weighted throughput, and SDO conservation holds.
  graph::TopologyParams params;
  params.num_nodes = 2;
  params.num_ingress = 1;
  params.num_intermediate = 3;
  params.num_egress = 1;
  params.depth = 3;
  const std::uint64_t seed = 17;
  const graph::ProcessingGraph g = generate_topology(params, seed);
  const opt::AllocationPlan plan = opt::optimize(g);

  sim::SimOptions so;
  so.duration = 12.0;
  so.warmup = 3.0;
  so.seed = seed + 1000;
  const harness::RunSummary sim_run = harness::run_single(g, plan, so);
  ASSERT_GT(sim_run.weighted_throughput, 0.0);

  for (std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(batch);
    runtime::RuntimeOptions ro;
    ro.duration = 12.0;
    ro.warmup = 3.0;
    // Wall headroom: a node thread that wakes more than one control
    // interval late re-homes its tick grid and loses that interval's CPU
    // budget. At 8x, a loaded host starved the ticks enough to miss the
    // bound; at 4x each interval lasts 25 ms of wall time.
    ro.time_scale = 4.0;
    ro.seed = seed + 1000;
    ro.batch = batch;
    const metrics::RunReport report = runtime::run_runtime(g, plan, ro);
    const harness::RunSummary rt_run =
        harness::summarize(report, plan.weighted_throughput);
    ASSERT_GT(rt_run.weighted_throughput, 0.0);
    const double rel_err =
        std::abs(rt_run.weighted_throughput - sim_run.weighted_throughput) /
        sim_run.weighted_throughput;
    EXPECT_LE(rel_err, 0.35)
        << "sim wtput " << sim_run.weighted_throughput << " vs runtime "
        << rt_run.weighted_throughput << " at batch=" << batch;
  }
}

}  // namespace
}  // namespace aces::runtime
