#include "core/dcsa_node.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adjacency.hpp"
#include "core/dcsa_columns.hpp"
#include "core/network_sim.hpp"
#include "core/weighted_dcsa_node.hpp"
#include "net/delay.hpp"
#include "net/scenario.hpp"

namespace {

gcs::core::SyncParams small_params(std::size_t n) {
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.0;
  p.delta_h = 0.5;
  return p;
}

// Direct-call context for node-level tests: hw_now carries the clock, and
// `now` (diagnostic only) just mirrors it.
gcs::core::NodeContext at(gcs::core::NodeId self, double hw_now) {
  return gcs::core::NodeContext{self, hw_now, hw_now};
}

TEST(DcsaNode, JumpsTowardLargerEstimateButNeverBackwards) {
  const auto p = small_params(2);
  gcs::core::DcsaNode node(p);
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  EXPECT_DOUBLE_EQ(node.logical_clock(5.0), 5.0);

  node.on_message(at(0, 5.0), 1, 20.0);
  const double jump = node.step(at(0, 5.0));
  EXPECT_GT(jump, 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(5.0), 20.0);
  EXPECT_TRUE(node.fast_mode());

  // A smaller (stale) estimate must not pull the clock down.
  node.on_message(at(0, 6.0), 1, 1.0);
  EXPECT_DOUBLE_EQ(node.step(at(0, 6.0)), 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(6.0), 21.0);
}

TEST(DcsaNode, CrippledToleranceBlocksJump) {
  auto p = small_params(3);
  // A tolerance with no G headroom: B(age) == b0 everywhere.
  const gcs::core::BFunction crippled(p.effective_b0(), 0.0, p.tau(), p.rho);
  gcs::core::DcsaNode node(p, crippled);
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);  // the neighbour far ahead
  node.on_edge_up(at(0, 0.0), 2);  // the laggard holding us back
  const double b0 = p.effective_b0();

  node.on_message(at(0, 1.0), 1, 100.0);         // way ahead
  node.on_message(at(0, 1.0), 2, -(b0 + 50.0));  // way behind
  EXPECT_TRUE(node.is_blocked_by(2, 1.0));
  EXPECT_FALSE(node.is_blocked_by(1, 1.0));
  // The cap (laggard's estimate + b0) sits below the current clock, so no
  // jump happens at all and the node free-runs at its hardware rate.
  EXPECT_DOUBLE_EQ(node.step(at(0, 1.0)), 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(1.0), 1.0);
}

TEST(DcsaNode, ProperToleranceDoesNotBlockFreshSkew) {
  auto p = small_params(3);
  gcs::core::DcsaNode node(p);  // proper B: B(0) = b0 + G(n) > G(n)
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  node.on_edge_up(at(0, 0.0), 2);
  // The laggard is behind by nearly the whole global bound -- legal for a
  // fresh edge, and by Lemma 6.10 it must not block.
  node.on_message(at(0, 1.0), 1, 10.0);
  node.on_message(at(0, 1.0), 2, -(p.global_skew_bound() - 10.0));
  EXPECT_FALSE(node.is_blocked_by(2, 1.0));
  node.step(at(0, 1.0));
  EXPECT_DOUBLE_EQ(node.logical_clock(1.0), 10.0);
}

TEST(WeightedDcsaNode, TightLinkTightensOnlyTheFloor) {
  auto p = small_params(3);
  auto weight = [](gcs::core::NodeId, gcs::core::NodeId peer) {
    return peer == 2 ? 0.5 : 1.0;
  };
  gcs::core::WeightedDcsaNode node(p, weight, 0.5);
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  node.on_edge_up(at(0, 0.0), 2);
  const double b0 = p.effective_b0();

  // Matured edges (age far past decay): the cap toward the tight peer 2
  // is half the cap toward the default peer 1.
  const double age = node.tolerance_fn().decay_age() + 100.0;
  const double before = node.logical_clock(age);
  node.on_message(at(0, age), 1, before + 1000.0);  // strong pull upward
  node.on_message(at(0, age), 2, before);  // tight peer level with us
  node.step(at(0, age));
  // Overshoot over the tight peer is capped by the weighted floor w * b0.
  EXPECT_NEAR(node.logical_clock(age) - before, 0.5 * b0, 1e-9);
  EXPECT_TRUE(node.is_blocked_by(2, age));
}

// End-to-end: a two-camp network on a ring must keep the global skew
// under G(n) and live-edge skews under the envelope, with zero
// conformance failures from the simulator's own checker.
TEST(NetworkSimulation, TwoCampRingStaysInsideBounds) {
  const auto p = small_params(8);
  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.emplace_back(i % 2 == 0 ? 1.0 + p.rho : 1.0 - p.rho);
  }
  gcs::core::NetworkSimulation sim(
      p,
      gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(), {}),
      gcs::net::make_constant_delay(p.T, p.T / 2.0), std::move(schedules),
      [&p](gcs::core::NodeId) {
        return std::make_unique<gcs::core::DcsaNode>(p);
      });
  sim.run_until(60.0);
  EXPECT_GT(sim.stats().messages_delivered, 0u);
  EXPECT_GT(sim.stats().jumps, 0u);
  EXPECT_EQ(sim.stats().conformance_envelope_failures, 0u);
  EXPECT_EQ(sim.stats().conformance_monotonicity_failures, 0u);
  double lo = sim.logical_clock(0), hi = lo;
  for (gcs::core::NodeId i = 1; i < p.n; ++i) {
    lo = std::min(lo, sim.logical_clock(i));
    hi = std::max(hi, sim.logical_clock(i));
  }
  EXPECT_LE(hi - lo, p.global_skew_bound());
  EXPECT_GT(hi, 50.0);  // clocks actually advanced through the horizon
}

// Sink that records the jumps reported through after(), for driving a
// store directly.
struct JumpSink : gcs::core::DeliverySink {
  std::vector<double> jumps;
  void before(const gcs::core::StoreDelivery&) override {}
  void after(const gcs::core::StoreDelivery&, double jump) override {
    jumps.push_back(jump);
  }
};

// The columns store driven the way NetworkSimulation drives it: up() and
// down() insert and erase half-edges in the Adjacency (a fresh estimate
// stamped with the node's hardware time), and a delivery carries the
// receiver's slot for the sender, resolved at delivery time.
struct ColumnsRig {
  ColumnsRig(const gcs::core::SyncParams& p, std::size_t n,
             gcs::core::Variant variant = gcs::core::Variant{})
      : adj(n), cols(p, adj, variant) {
    for (gcs::core::NodeId u = 0; u < n; ++u) cols.start(at(u, 0.0));
  }
  ColumnsRig(const ColumnsRig&) = delete;
  ColumnsRig& operator=(const ColumnsRig&) = delete;

  void up(gcs::core::NodeId u, gcs::core::NodeId peer, double hw) {
    adj.insert(u, peer, 0, hw, hw);
    cols.edge_up(at(u, hw), peer);
  }
  void down(gcs::core::NodeId u, gcs::core::NodeId peer, double hw) {
    const std::uint32_t s = adj.find(u, peer);
    if (s != gcs::core::Adjacency::kNpos) adj.erase(u, s);
    cols.edge_down(at(u, hw), peer);
  }
  // Delivers `value` from -> to at hardware time hw; returns the jump.
  double deliver(gcs::core::NodeId from, gcs::core::NodeId to, double value,
                 double hw) {
    gcs::core::StoreDelivery d;
    d.from = from;
    d.to = to;
    d.value = value;
    d.hw_now = hw;
    d.now = hw;
    d.slot = adj.find(to, from);
    JumpSink sink;
    cols.on_deliveries(&d, 1, sink);
    EXPECT_EQ(sink.jumps.size(), 1u);
    return sink.jumps.at(0);
  }
  // u's peers in segment order.
  std::vector<gcs::core::NodeId> peers(gcs::core::NodeId u) const {
    std::vector<gcs::core::NodeId> out;
    for (std::uint32_t s = adj.begin(u); s < adj.end(u); ++s) {
      out.push_back(adj.peer(s));
    }
    return out;
  }

  gcs::core::Adjacency adj;
  gcs::core::DcsaColumns cols;
};

// The struct-of-arrays store must reproduce DcsaNode's arithmetic bit
// for bit under every variant: same deliveries, same jumps, same logical
// clocks, same fast flag -- including across edge churn that exercises
// slot reuse.  Each variant runs twice: on fresh edges (B(0) > G, so no
// cap binds) and on edges matured past decay_age, where the laggard's
// cap binds and the variants' jumps must differ from plain DCSA's.
TEST(DcsaColumns, MirrorsDcsaNodeBitForBit) {
  const auto p = small_params(4);
  const double mature = gcs::core::BFunction(p).decay_age() + 10.0;
  std::vector<double> dcsa_mature_jumps;
  for (const char* spec : {"dcsa", "weighted:0.5", "noblock", "nojump"}) {
    for (const double base : {0.0, mature}) {
      SCOPED_TRACE(std::string(spec) + " base " + std::to_string(base));
      const auto variant = gcs::core::Variant::parse(spec);
      gcs::core::DcsaNode node(p, variant);
      ColumnsRig rig(p, 4, variant);

      const gcs::core::NodeContext zero = at(0, 0.0);
      node.start(zero);
      for (gcs::core::NodeId peer : {1u, 2u, 3u}) {
        node.on_edge_up(zero, peer);
        rig.up(0, peer, 0.0);
      }

      std::vector<double> node_jumps;
      const double values[] = {7.5, -3.25, 12.0, 11.875, 0.5, 40.0};
      double hw = base + 0.5;
      for (std::size_t k = 0; k < 6; ++k, hw += 0.625) {
        const gcs::core::NodeId from = 1 + (k % 3);
        const double value = base + values[k];
        node.on_message(at(0, hw), from, value);
        node_jumps.push_back(node.step(at(0, hw)));
        EXPECT_EQ(rig.deliver(from, 0, value, hw), node_jumps[k])
            << "record " << k;
        EXPECT_EQ(rig.cols.logical_clock(0, hw), node.logical_clock(hw));
        EXPECT_EQ(rig.cols.fast_mode(0), node.fast_mode());

        if (k == 2) {  // churn an edge mid-stream: both must forget peer 2
          node.on_edge_down(at(0, hw), 2);
          rig.down(0, 2, hw);
          node.on_edge_up(at(0, hw), 2);
          rig.up(0, 2, hw);
        }
      }
      if (base == 0.0) continue;
      if (dcsa_mature_jumps.empty()) {
        dcsa_mature_jumps = node_jumps;
      } else {
        EXPECT_NE(node_jumps, dcsa_mature_jumps);  // the variant mattered
      }
    }
  }
}

// Slot-arena mechanics: segments grow past the initial capacity by
// relocation, erase shifts the segment tail down keeping insertion
// order, and the books (live_slots, arena_bytes) stay consistent.
TEST(DcsaColumns, SlotArenaGrowsAndShrinks) {
  const auto p = small_params(64);
  ColumnsRig rig(p, 64);

  // Degree 12 on node 0 forces two relocations (cap 4 -> 8 -> 16).
  for (gcs::core::NodeId peer = 1; peer <= 12; ++peer) rig.up(0, peer, 0.0);
  EXPECT_EQ(rig.adj.live_slots(), 12u);
  EXPECT_GT(rig.cols.arena_bytes(), 0u);

  // A middle removal keeps the survivors in insertion order: classic
  // broadcasts walk the segment and draw delays in that order.
  rig.down(0, 6, 1.0);
  EXPECT_EQ(rig.peers(0), (std::vector<gcs::core::NodeId>{1, 2, 3, 4, 5, 7, 8,
                                                          9, 10, 11, 12}));
  EXPECT_EQ(rig.adj.live_slots(), 11u);

  for (gcs::core::NodeId peer = 1; peer <= 12; ++peer) rig.down(0, peer, 1.0);
  EXPECT_EQ(rig.adj.live_slots(), 0u);
  EXPECT_TRUE(rig.peers(0).empty());

  // Re-adding after a full teardown reuses the segment cleanly.
  rig.up(0, 5, 2.0);
  EXPECT_EQ(rig.adj.live_slots(), 1u);
  EXPECT_GT(rig.deliver(5, 0, 100.0, 2.0), 0.0);
  EXPECT_EQ(rig.cols.logical_clock(0, 2.0), 100.0);
}

// Adversarial grow/shrink churn on one segment: estimates set before a
// cap-doubling relocation must ride along to the new region bit-exact,
// removals at the head/middle/tail of the segment must not corrupt
// survivors, and reclaimed slots must come back clean -- all mirrored
// delivery-for-delivery against the adapter-store automaton.
TEST(DcsaColumns, AdversarialChurnKeepsRelocatedSegmentsBitExact) {
  const auto p = small_params(64);
  gcs::core::DcsaNode node(p);
  ColumnsRig rig(p, 64);
  node.start(at(0, 0.0));

  double hw = 0.25;
  auto deliver = [&](gcs::core::NodeId from, double value) {
    node.on_message(at(0, hw), from, value);
    const double want = node.step(at(0, hw));
    EXPECT_EQ(rig.deliver(from, 0, value, hw), want)
        << "from " << from << " at hw " << hw;
    EXPECT_EQ(rig.cols.logical_clock(0, hw), node.logical_clock(hw));
    EXPECT_EQ(rig.cols.fast_mode(0), node.fast_mode());
    hw += 0.375;
  };
  auto up = [&](gcs::core::NodeId peer) {
    node.on_edge_up(at(0, hw), peer);
    rig.up(0, peer, hw);
  };
  auto down = [&](gcs::core::NodeId peer) {
    node.on_edge_down(at(0, hw), peer);
    rig.down(0, peer, hw);
  };

  // Grow through three relocations (cap 4 -> 8 -> 16 -> 32), delivering
  // after every edge so each relocation carries live estimates.
  for (gcs::core::NodeId peer = 1; peer <= 20; ++peer) {
    up(peer);
    deliver(peer, 3.0 * peer + 0.125);
  }
  EXPECT_EQ(rig.adj.live_slots(), 20u);

  // Remove the segment's first, middle, and last slot, then hear from
  // every survivor (a stale or mis-copied slot diverges instantly).
  down(1);
  down(10);
  down(20);
  EXPECT_EQ(rig.adj.live_slots(), 17u);
  for (gcs::core::NodeId peer = 2; peer <= 19; ++peer) {
    if (peer == 10) continue;
    deliver(peer, 100.0 + peer);
  }
  // A message from a removed peer updates nothing (but still steps).
  deliver(1, 1e6);

  // Reclaim the freed slots and push through one more relocation.
  for (gcs::core::NodeId peer : {1u, 10u, 20u}) {
    up(peer);
    deliver(peer, 200.0 + peer);
  }
  for (gcs::core::NodeId peer = 21; peer <= 40; ++peer) {
    up(peer);
    deliver(peer, 50.0 + peer);
  }
  EXPECT_EQ(rig.adj.live_slots(), 40u);
}

// The hole-threshold compaction must actually fire under churn -- the
// seed's "half the arena" threshold was unreachable (doubling growth
// leaves c-4 holes against 2c-4 allocated slots per segment, strictly
// under one half forever) -- and a fired compaction must preserve every
// segment: estimates recorded before the rebuild still drive jumps
// bit-identical to adapter-store automatons after it.
TEST(DcsaColumns, HoleCompactionFiresAndPreservesSegments) {
  const std::size_t n = 600;
  const auto p = small_params(n);
  ColumnsRig rig(p, n);
  std::vector<gcs::core::DcsaNode> nodes(n, gcs::core::DcsaNode(p));
  for (gcs::core::NodeId u = 0; u < n; ++u) nodes[u].start(at(u, 0.0));

  // Degree 9 everywhere: two relocations per node (cap 4 -> 8 -> 16),
  // 12 holes a node, so holes cross the 4096 absolute floor and a
  // quarter of the arena a bit past node 340.  arena_bytes() shrinking
  // across an insert is the compaction firing.
  std::size_t compactions = 0;
  std::size_t prev_bytes = rig.cols.arena_bytes();
  for (gcs::core::NodeId u = 0; u < n; ++u) {
    for (gcs::core::NodeId k = 1; k <= 9; ++k) {
      const gcs::core::NodeId peer = (u + k) % n;
      nodes[u].on_edge_up(at(u, 0.0), peer);
      rig.up(u, peer, 0.0);
      if (rig.cols.arena_bytes() < prev_bytes) ++compactions;
      prev_bytes = rig.cols.arena_bytes();
      if (k == 5) {  // a mid-growth estimate the rebuild must carry
        const double value = 0.5 + 0.001 * u;
        nodes[u].on_message(at(u, 0.5), peer, value);
        const double want = nodes[u].step(at(u, 0.5));
        ASSERT_EQ(rig.deliver(peer, u, value, 0.5), want) << "node " << u;
      }
    }
  }
  EXPECT_GE(compactions, 1u);
  EXPECT_EQ(rig.adj.live_slots(), n * 9u);

  // Segments on both sides of the compaction point still mirror the
  // adapter automatons exactly, pre-rebuild estimates included.
  double hw = 1.0;
  for (gcs::core::NodeId u : {0u, 200u, 341u, 342u, 599u}) {
    const gcs::core::NodeId from = (u + 3) % n;
    const double value = 500.0 + u;
    nodes[u].on_message(at(u, hw), from, value);
    const double want = nodes[u].step(at(u, hw));
    ASSERT_EQ(rig.deliver(from, u, value, hw), want) << "node " << u;
    EXPECT_EQ(rig.cols.logical_clock(u, hw), nodes[u].logical_clock(hw));
    hw += 0.5;
  }

  // find() still locates every relocated-and-rebuilt slot.
  for (gcs::core::NodeId u = 0; u < n; ++u) rig.down(u, (u + 1) % n, 2.0);
  EXPECT_EQ(rig.adj.live_slots(), n * 8u);
}

// End-to-end store equivalence at the simulation layer: the columns
// store and the per-node adapter must produce bit-identical clocks and
// identical statistics on the same dynamic run.
TEST(NetworkSimulation, ColumnsMatchesAdapterTrajectory) {
  const auto p = small_params(8);
  auto make_schedules = [&] {
    std::vector<gcs::clk::RateSchedule> schedules;
    for (std::size_t i = 0; i < p.n; ++i) {
      schedules.emplace_back(i % 2 == 0 ? 1.0 + p.rho : 1.0 - p.rho);
    }
    return schedules;
  };
  auto make_graph = [&] {
    // Ring plus churn: one edge flaps every 3 time units.
    std::vector<gcs::net::TopologyEvent> events;
    for (int k = 0; k < 10; ++k) {
      events.push_back({3.0 * k + 1.0, gcs::net::Edge(0, 4), k % 2 == 0});
    }
    return gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(),
                                  events);
  };

  gcs::core::NetworkSimulation columns(
      p, make_graph(), gcs::net::make_constant_delay(p.T, p.T / 2.0),
      make_schedules());
  gcs::core::NetworkSimulation adapter(
      p, make_graph(), gcs::net::make_constant_delay(p.T, p.T / 2.0),
      make_schedules(), [&p](gcs::core::NodeId) {
        return std::make_unique<gcs::core::DcsaNode>(p);
      });
  columns.run_until(40.0);
  adapter.run_until(40.0);

  for (gcs::core::NodeId u = 0; u < p.n; ++u) {
    EXPECT_EQ(columns.logical_clock(u), adapter.logical_clock(u)) << "node "
                                                                  << u;
  }
  EXPECT_EQ(columns.stats().messages_delivered,
            adapter.stats().messages_delivered);
  EXPECT_EQ(columns.stats().jumps, adapter.stats().jumps);
  EXPECT_EQ(columns.stats().total_jump, adapter.stats().total_jump);
  EXPECT_GT(columns.stats().jumps, 0u);
  // The columns store reports its arena; the adapter hides state behind
  // heap objects and reports 0.
  EXPECT_GT(columns.stats().arena_bytes, 0u);
  EXPECT_EQ(adapter.stats().arena_bytes, 0u);
  // The adapter exposes per-node automatons, the columns store does not.
  EXPECT_NO_THROW(adapter.node(0));
  EXPECT_THROW(columns.node(0), std::logic_error);
}

// A message in flight when its edge goes down and comes back up before
// the delivery instant belongs to the dead incarnation: it is dropped,
// and the receiver adopts nothing from it -- classic and sharded, on
// both stores.  Node 0 runs fast, so an adopted value would jump
// node 1 forward.
TEST(NetworkSimulation, AdjacencyDropsMessageAcrossEdgeReAdd) {
  auto p = small_params(2);
  p.delta_h = 10.0;  // node 0 broadcasts once, at hw 5; node 1 at hw 10
  const double send_t = 5.0 / (1.0 + p.rho);
  const double arrive_t = send_t + 0.5;
  const std::vector<gcs::net::TopologyEvent> events = {
      {send_t + 0.1, gcs::net::Edge(0, 1), false},
      {send_t + 0.2, gcs::net::Edge(0, 1), true}};
  for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    for (const bool adapter : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   (adapter ? " adapter" : " columns"));
      gcs::core::SimOptions opts;
      opts.shards = shards;
      std::vector<gcs::clk::RateSchedule> schedules;
      schedules.emplace_back(1.0 + p.rho);
      schedules.emplace_back(1.0 - p.rho);
      gcs::core::NetworkSimulation::NodeFactory factory;
      if (adapter) {
        factory = [&p](gcs::core::NodeId) {
          return std::make_unique<gcs::core::DcsaNode>(p);
        };
      }
      gcs::core::NetworkSimulation sim(
          p, gcs::net::DynamicGraph(2, {gcs::net::Edge(0, 1)}, events),
          gcs::net::make_constant_delay(p.T, 0.5), std::move(schedules),
          factory, opts);

      sim.run_until(arrive_t + 0.05);
      EXPECT_EQ(sim.stats().messages_sent, 3u);  // broadcast + discovery pair
      EXPECT_EQ(sim.stats().messages_dropped, 1u);
      EXPECT_EQ(sim.stats().messages_delivered, 0u);
      EXPECT_EQ(sim.stats().jumps, 0u);
      EXPECT_EQ(sim.logical_clock(1), sim.hardware_clock(1));
      EXPECT_EQ(sim.current_edges().size(), 1u);
      EXPECT_NEAR(sim.edge_age(gcs::net::Edge(0, 1)), 0.35, 1e-9);

      // The new incarnation's discovery exchange does get through, and
      // node 1 catches up to node 0 from it.
      sim.run_until(arrive_t + 0.5);
      EXPECT_EQ(sim.stats().messages_dropped, 1u);
      EXPECT_EQ(sim.stats().messages_delivered, 2u);
      EXPECT_GE(sim.stats().jumps, 1u);
      EXPECT_GT(sim.logical_clock(1), sim.hardware_clock(1));
    }
  }
}

}  // namespace
