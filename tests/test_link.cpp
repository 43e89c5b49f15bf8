// The link-layer pipeline: parse_traffic grammar, the per-direction FIFO
// arithmetic, and the two contracts NetworkSimulation builds on top of it:
//
//   * ideal-link degeneration -- traffic "off" and the infinite-bandwidth
//     "idle" pipeline produce BIT-IDENTICAL trajectories and stats (the
//     same identity gcs_link_equivalence proves end to end on trees);
//   * lookahead soundness -- queueing only ever adds delay on top of the
//     propagation draw and the total stays clamped to [floor, bound], so
//     the sharded engine's propagation-floor window survives arbitrary
//     offered load with zero clamped events.
//
// Traffic-on trajectories are themselves deterministic (RNG-free pipeline,
// fixed flow phases): byte-identical run to run and across shard counts,
// which the matrix tests here pin at the API level.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dcsa_node.hpp"
#include "core/network_sim.hpp"
#include "net/delay.hpp"
#include "net/link.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace {

using gcs::core::NetworkSimulation;
using gcs::core::RunStats;
using gcs::core::SimOptions;
using gcs::core::SyncParams;
using gcs::net::LinkDecision;
using gcs::net::LinkDir;
using gcs::net::LinkModel;
using gcs::net::parse_traffic;
using gcs::net::TrafficModel;

// ---------------------------------------------------------------------------
// parse_traffic grammar
// ---------------------------------------------------------------------------

TEST(ParseTraffic, OffIsTheIdealLink) {
  const TrafficModel m = parse_traffic("off");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kIdeal);
  EXPECT_FALSE(m.pipeline_active());
  EXPECT_FALSE(m.has_flows());
}

TEST(ParseTraffic, IdleKnobs) {
  const TrafficModel m = parse_traffic("idle:bw=8000:queue=4000:mark=2000:msg=128");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kIdle);
  EXPECT_TRUE(m.pipeline_active());
  EXPECT_FALSE(m.has_flows());
  EXPECT_DOUBLE_EQ(m.bandwidth, 8000.0);
  EXPECT_DOUBLE_EQ(m.queue_bytes, 4000.0);
  EXPECT_DOUBLE_EQ(m.mark_bytes, 2000.0);
  EXPECT_DOUBLE_EQ(m.sync_bytes, 128.0);
}

TEST(ParseTraffic, BareIdleIsInfiniteBandwidth) {
  const TrafficModel m = parse_traffic("idle");
  EXPECT_TRUE(m.pipeline_active());
  EXPECT_DOUBLE_EQ(m.bandwidth, 0.0);  // 0 = no serialization at all
}

TEST(ParseTraffic, CbrKnobsAndFlowHelpers) {
  const TrafficModel m = parse_traffic("cbr:bw=4000:rate=10");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kCbr);
  EXPECT_TRUE(m.has_flows());
  EXPECT_DOUBLE_EQ(m.rate, 10.0);
  EXPECT_DOUBLE_EQ(m.packet_bytes, 1500.0);  // default
  EXPECT_DOUBLE_EQ(m.flow_period(), 0.1);
  EXPECT_DOUBLE_EQ(m.flow_bytes(), 1500.0);
  EXPECT_TRUE(m.flow_droppable());
}

TEST(ParseTraffic, BulkKnobsAndFlowHelpers) {
  const TrafficModel m = parse_traffic("bulk:bw=8000:bytes=6000:interval=4");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kBulk);
  EXPECT_TRUE(m.has_flows());
  EXPECT_DOUBLE_EQ(m.flow_period(), 4.0);
  EXPECT_DOUBLE_EQ(m.flow_bytes(), 6000.0);
  EXPECT_FALSE(m.flow_droppable());  // bulk backpressures, never drops
}

TEST(ParseTraffic, StrictErrors) {
  EXPECT_THROW(parse_traffic(""), std::invalid_argument);
  EXPECT_THROW(parse_traffic("fast"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:warp=9"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:bw"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:bw=fast"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:bw=8000x"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:queue=-1"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("cbr:bw=4000"), std::invalid_argument);  // no rate
  EXPECT_THROW(parse_traffic("cbr:rate=10"), std::invalid_argument);  // no bw
  EXPECT_THROW(parse_traffic("bulk:bw=4000:bytes=100"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("bulk:bw=4000:interval=2"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// link_offer FIFO arithmetic
// ---------------------------------------------------------------------------

TEST(LinkOffer, IdealAndInfiniteBandwidthAreTheIdentity) {
  LinkDir dir;
  const LinkDecision off =
      gcs::net::link_offer(parse_traffic("off"), dir, 5.0, 64.0, false);
  EXPECT_DOUBLE_EQ(off.wait + off.tx + off.backlog_bytes, 0.0);
  EXPECT_FALSE(off.dropped);
  EXPECT_FALSE(off.marked);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.0);
  const LinkDecision idle =
      gcs::net::link_offer(parse_traffic("idle"), dir, 5.0, 64.0, false);
  EXPECT_DOUBLE_EQ(idle.wait + idle.tx + idle.backlog_bytes, 0.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.0);
}

TEST(LinkOffer, SerializationAndQueueWait) {
  const TrafficModel m = parse_traffic("idle:bw=1000");
  LinkDir dir;
  LinkDecision d = gcs::net::link_offer(m, dir, 0.0, 500.0, false);
  EXPECT_DOUBLE_EQ(d.wait, 0.0);
  EXPECT_DOUBLE_EQ(d.tx, 0.5);
  EXPECT_DOUBLE_EQ(d.backlog_bytes, 0.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.5);
  // Same instant: the second packet queues behind the first.
  d = gcs::net::link_offer(m, dir, 0.0, 500.0, false);
  EXPECT_DOUBLE_EQ(d.wait, 0.5);
  EXPECT_DOUBLE_EQ(d.backlog_bytes, 500.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 1.0);
  // After the link drains, no wait and no backlog.
  d = gcs::net::link_offer(m, dir, 2.0, 500.0, false);
  EXPECT_DOUBLE_EQ(d.wait, 0.0);
  EXPECT_DOUBLE_EQ(d.backlog_bytes, 0.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 2.5);
}

TEST(LinkOffer, BoundedQueueDropsDroppablesOnly) {
  const TrafficModel m = parse_traffic("idle:bw=1000:queue=800");
  LinkDir dir;
  EXPECT_FALSE(gcs::net::link_offer(m, dir, 0.0, 500.0, true).dropped);
  // backlog 500 + 500 > 800: a droppable packet bounces, state untouched.
  const LinkDecision dropped = gcs::net::link_offer(m, dir, 0.0, 500.0, true);
  EXPECT_TRUE(dropped.dropped);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.5);
  // The same offer marked non-droppable (a sync message) is accepted.
  const LinkDecision kept = gcs::net::link_offer(m, dir, 0.0, 500.0, false);
  EXPECT_FALSE(kept.dropped);
  EXPECT_DOUBLE_EQ(kept.wait, 0.5);
  EXPECT_DOUBLE_EQ(dir.busy_until, 1.0);
}

TEST(LinkOffer, MarksAboveThreshold) {
  const TrafficModel m = parse_traffic("idle:bw=1000:mark=400");
  LinkDir dir;
  EXPECT_FALSE(gcs::net::link_offer(m, dir, 0.0, 500.0, false).marked);
  EXPECT_TRUE(gcs::net::link_offer(m, dir, 0.0, 64.0, false).marked);
}

TEST(FlowPhase, DeterministicFractionInOpenUnitInterval) {
  for (std::uint64_t key = 0; key < 512; ++key) {
    const double phase = gcs::net::flow_phase(key);
    EXPECT_GT(phase, 0.0) << key;
    EXPECT_LT(phase, 1.0) << key;
    EXPECT_DOUBLE_EQ(phase, gcs::net::flow_phase(key)) << key;
  }
  EXPECT_NE(gcs::net::flow_phase(2), gcs::net::flow_phase(3));
}

// ---------------------------------------------------------------------------
// NetworkSimulation contracts
// ---------------------------------------------------------------------------

SyncParams test_params(std::size_t n) {
  SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  return p;
}

std::vector<gcs::clk::RateSchedule> walk_schedules(const SyncParams& p,
                                                   std::uint64_t seed) {
  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.push_back(gcs::clk::RateSchedule::random_walk(
        p.rho, /*step_dt=*/1.0, /*sigma=*/p.rho / 4.0, seed * 7919 + i));
  }
  return schedules;
}

struct Trace {
  std::vector<double> clocks;
  RunStats stats;
  std::uint64_t clamped = 0;
};

// Runs a churn scenario (flows must survive edge add/remove/re-add) under
// the given traffic spec.  shards == 0 is the classic engine.
Trace run_traffic(const std::string& traffic, std::size_t shards,
                  double horizon) {
  gcs::util::Rng scenario_rng(7);
  const gcs::net::Scenario scenario =
      gcs::net::make_churn_scenario(12, 6, 8.0, horizon, scenario_rng);
  const SyncParams p = test_params(scenario.n);
  SimOptions options;
  options.seed = 1234;
  options.shards = shards;
  NetworkSimulation sim(
      p, scenario.to_dynamic_graph(),
      LinkModel(gcs::net::make_uniform_delay(p.T, 0.25, p.T),
                parse_traffic(traffic)),
      walk_schedules(p, 99),
      [&p](gcs::core::NodeId) { return std::make_unique<gcs::core::DcsaNode>(p); },
      options);
  Trace trace;
  sim.schedule_periodic(0.25, 0.25, [&](gcs::sim::Time) {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      trace.clocks.push_back(sim.logical_clock(static_cast<gcs::core::NodeId>(i)));
    }
  });
  sim.run_until(horizon);
  trace.stats = sim.stats();
  trace.clamped = sim.engine_clamped_count();
  return trace;
}

void expect_same_trajectory_and_stats(const Trace& a, const Trace& b,
                                      const std::string& what) {
  EXPECT_EQ(a.clocks, b.clocks) << what;
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent) << what;
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered) << what;
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped) << what;
  EXPECT_EQ(a.stats.traffic_packets, b.stats.traffic_packets) << what;
  EXPECT_EQ(a.stats.traffic_dropped, b.stats.traffic_dropped) << what;
  EXPECT_EQ(a.stats.ecn_marks, b.stats.ecn_marks) << what;
  EXPECT_EQ(a.stats.peak_queue_bytes, b.stats.peak_queue_bytes) << what;
  // Bit-exact doubles: the fold order is pinned (node order / max).
  EXPECT_EQ(a.stats.sync_delay_sum, b.stats.sync_delay_sum) << what;
  EXPECT_EQ(a.stats.sync_delay_max, b.stats.sync_delay_max) << what;
}

// A cbr model saturated well past the link rate: 10 pkt/s x 1000 B over a
// 4000 B/s link, bounded queue, low mark threshold -- every counter moves.
constexpr const char kSaturatedCbr[] =
    "cbr:bw=4000:rate=10:pkt=1000:queue=3000:mark=500";

TEST(LinkEquivalence, OffMatchesIdleBitExactlyClassic) {
  const Trace off = run_traffic("off", 0, 30.0);
  const Trace idle = run_traffic("idle", 0, 30.0);
  ASSERT_FALSE(off.clocks.empty());
  EXPECT_GT(off.stats.messages_delivered, 0u);
  expect_same_trajectory_and_stats(off, idle, "classic off vs idle");
  EXPECT_EQ(idle.stats.traffic_packets, 0u);
  EXPECT_EQ(idle.stats.peak_queue_bytes, 0u);
}

TEST(LinkEquivalence, OffMatchesIdleBitExactlySharded) {
  const Trace off = run_traffic("off", 2, 30.0);
  const Trace idle = run_traffic("idle", 2, 30.0);
  ASSERT_FALSE(off.clocks.empty());
  expect_same_trajectory_and_stats(off, idle, "sharded off vs idle");
}

TEST(LinkEquivalence, SyncDelayRecordedEvenWithTrafficOff) {
  // With the pipeline off the latency pair reduces to the propagation
  // draw: still recorded (that identity is what keeps off == idle byte-
  // exact), and bounded by the delay model's [floor, bound].
  const Trace off = run_traffic("off", 0, 30.0);
  EXPECT_GT(off.stats.sync_delay_sum, 0.0);
  EXPECT_GE(off.stats.sync_delay_max, 0.25);
  EXPECT_LE(off.stats.sync_delay_max, 1.0);
}

TEST(TrafficDeterminism, ClassicMatrixIsByteIdentical) {
  const Trace base = run_traffic(kSaturatedCbr, 0, 30.0);
  ASSERT_FALSE(base.clocks.empty());
  EXPECT_GT(base.stats.traffic_packets, 0u);
  const Trace again = run_traffic(kSaturatedCbr, 0, 30.0);
  expect_same_trajectory_and_stats(base, again, "classic rerun");
}

TEST(TrafficDeterminism, ShardCountInvariantUnderLoad) {
  const Trace base = run_traffic(kSaturatedCbr, 1, 30.0);
  ASSERT_FALSE(base.clocks.empty());
  EXPECT_GT(base.stats.traffic_packets, 0u);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const Trace got =
        run_traffic(kSaturatedCbr, shards, 30.0);
    expect_same_trajectory_and_stats(base, got,
                                     "shards " + std::to_string(shards));
    EXPECT_EQ(got.clamped, 0u) << shards;
  }
}

TEST(TrafficContention, SaturatedLinkMovesEveryCounterAndStaysBounded) {
  for (const std::size_t shards : {std::size_t{0}, std::size_t{4}}) {
    const Trace loaded =
        run_traffic(kSaturatedCbr, shards, 30.0);
    const std::string what = "shards " + std::to_string(shards);
    EXPECT_GT(loaded.stats.traffic_packets, 0u) << what;
    EXPECT_GT(loaded.stats.traffic_dropped, 0u) << what;
    EXPECT_GT(loaded.stats.ecn_marks, 0u) << what;
    EXPECT_GT(loaded.stats.peak_queue_bytes, 0u) << what;
    // The bounded queue really bounds: backlog never exceeds the cap.
    EXPECT_LE(loaded.stats.peak_queue_bytes, 3000u + 1000u) << what;
    // Lookahead soundness under saturation: the total sync delay stays
    // clamped to the propagation [floor, bound], so the sharded engine
    // never clamps an event -- queueing cannot break the barrier window.
    EXPECT_GE(loaded.stats.sync_delay_max, 0.25) << what;
    EXPECT_LE(loaded.stats.sync_delay_max, 1.0) << what;
    EXPECT_EQ(loaded.clamped, 0u) << what;

    // And the load is visible where the paper cares: mean sync latency
    // under saturation exceeds the unloaded mean.
    const Trace off = run_traffic("off", shards, 30.0);
    const double mean_loaded =
        loaded.stats.sync_delay_sum /
        static_cast<double>(loaded.stats.messages_sent);
    const double mean_off =
        off.stats.sync_delay_sum / static_cast<double>(off.stats.messages_sent);
    EXPECT_GT(mean_loaded, mean_off) << what;
  }
}

TEST(TrafficContention, BulkFlowsBackpressureInsteadOfDropping) {
  const Trace bulk = run_traffic("bulk:bw=4000:bytes=6000:interval=5:queue=2000",
                                 0, 30.0);
  EXPECT_GT(bulk.stats.traffic_packets, 0u);
  // Bulk bursts are non-droppable by design: the bounded queue applies
  // only to droppable (cbr) packets.
  EXPECT_EQ(bulk.stats.traffic_dropped, 0u);
  EXPECT_GT(bulk.stats.peak_queue_bytes, 0u);
}

}  // namespace
