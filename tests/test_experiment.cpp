#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "net/scenario.hpp"
#include "util/rng.hpp"

namespace {

gcs::harness::ExperimentConfig small_config() {
  gcs::harness::ExperimentConfig cfg;
  cfg.name = "unit";
  cfg.params.n = 8;
  cfg.params.rho = 0.05;
  cfg.params.T = 1.0;
  cfg.params.D = 2.5;
  cfg.params.delta_h = 0.5;
  cfg.topology = "ring";
  cfg.drift = "spread";
  cfg.delay = "uniform";
  cfg.horizon = 40.0;
  cfg.sample_dt = 0.5;
  cfg.seed = 9;
  return cfg;
}

TEST(RunExperiment, StaticRingHasZeroViolations) {
  const auto result = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(result.global_violations, 0u);
  EXPECT_EQ(result.envelope_violations, 0u);
  EXPECT_GT(result.samples, 0u);
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.run_stats.messages_delivered, 0u);
  EXPECT_GT(result.max_global_skew, 0.0);  // drift does open real skew...
  EXPECT_LE(result.max_global_skew, result.global_skew_bound);  // ...bounded
  EXPECT_EQ(result.run_stats.messages_dropped, 0u);  // static graph
}

TEST(RunExperiment, ChurnScenarioHasZeroViolations) {
  auto cfg = small_config();
  cfg.params.n = 12;
  cfg.drift = "walk";
  cfg.horizon = 60.0;
  gcs::util::Rng rng(5);
  cfg.scenario =
      gcs::net::make_churn_scenario(12, 6, 10.0, cfg.horizon, rng);
  const auto result = gcs::harness::run_experiment(cfg);
  EXPECT_EQ(result.global_violations, 0u);
  EXPECT_EQ(result.envelope_violations, 0u);
  EXPECT_GT(result.run_stats.topology_events_applied, 0u);
  EXPECT_LE(result.max_global_skew, result.global_skew_bound);
}

TEST(RunExperiment, DeterministicPerSeed) {
  const auto a = gcs::harness::run_experiment(small_config());
  const auto b = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(a.max_global_skew, b.max_global_skew);
  EXPECT_EQ(a.max_local_skew, b.max_local_skew);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.run_stats.messages_delivered, b.run_stats.messages_delivered);
  EXPECT_EQ(a.run_stats.jumps, b.run_stats.jumps);

  auto other = small_config();
  other.seed = 10;  // different delays -> different skew trajectory
  const auto c = gcs::harness::run_experiment(other);
  EXPECT_NE(a.max_global_skew, c.max_global_skew);
}

TEST(RunExperiment, ConstantDelayStringParses) {
  auto cfg = small_config();
  cfg.delay = "constant:0.5";
  const auto result = gcs::harness::run_experiment(cfg);
  EXPECT_EQ(result.global_violations + result.envelope_violations, 0u);
}

TEST(RunExperiment, RejectsBadConfigs) {
  auto cfg = small_config();
  cfg.topology = "torus";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.drift = "quadratic";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.delay = "zipf";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.params.n = 1;
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.engine = "wheel";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.delivery = "multicast";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);

  // These must fail fast with a message naming the culprit: a zero
  // broadcast period used to livelock the run, a negative one died on a
  // non-finite engine time, and n past the 32-bit node ids ran into
  // std::bad_alloc.
  const auto expect_named = [](const gcs::harness::ExperimentConfig& bad,
                               const std::string& name) {
    try {
      gcs::harness::run_experiment(bad);
      ADD_FAILURE() << name << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  for (const double delta_h : {0.0, -1.0, std::nan("")}) {
    cfg = small_config();
    cfg.params.delta_h = delta_h;
    expect_named(cfg, "delta_h");
  }
  for (const std::size_t n :
       {std::size_t{4294967296}, std::size_t{4294967297}}) {
    cfg = small_config();
    cfg.params.n = n;
    expect_named(cfg, "n = " + std::to_string(n));
    expect_named(cfg, "4294967295");
  }
  // Non-finite model constants and run lengths: a NaN horizon or window
  // used to hang the run, the rest to fail without naming the key (or,
  // for B0, to abort the whole campaign when the config was serialized).
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf}) {
    cfg = small_config();
    cfg.params.rho = bad;
    expect_named(cfg, "rho must be finite");
    cfg = small_config();
    cfg.params.T = bad;
    expect_named(cfg, "T must be finite");
    cfg = small_config();
    cfg.params.D = bad;
    expect_named(cfg, "D must be finite");
    cfg = small_config();
    cfg.params.B0 = bad;
    expect_named(cfg, "B0 must be finite");
    cfg = small_config();
    cfg.horizon = bad;
    expect_named(cfg, "horizon must be finite");
    cfg = small_config();
    cfg.sample_dt = bad;
    expect_named(cfg, "sample_dt must be finite");
  }
}

TEST(RunExperiment, EngineAndDeliveryKnobsAreTrajectoryNeutral) {
  // The harness-level restatement of the determinism contract: every
  // engine/delivery combination reports the same measured physics.
  const auto base = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(base.clamped_events, 0u);
  for (const char* engine : {"calendar", "heap"}) {
    for (const char* delivery : {"batched", "per-receiver"}) {
      auto cfg = small_config();
      cfg.engine = engine;
      cfg.delivery = delivery;
      const auto result = gcs::harness::run_experiment(cfg);
      EXPECT_EQ(result.max_global_skew, base.max_global_skew)
          << engine << "/" << delivery;
      EXPECT_EQ(result.max_local_skew, base.max_local_skew)
          << engine << "/" << delivery;
      EXPECT_EQ(result.run_stats.messages_delivered,
                base.run_stats.messages_delivered)
          << engine << "/" << delivery;
      EXPECT_EQ(result.run_stats.jumps, base.run_stats.jumps)
          << engine << "/" << delivery;
      EXPECT_EQ(result.clamped_events, 0u) << engine << "/" << delivery;
    }
  }
}

TEST(RunExperiment, VariantAxisRunsAblationProtocols) {
  // The ablation variants (core/dcsa_kernel.hpp) through the harness, on
  // both node stores.  On this quiet spread-drift ring the blocking cap
  // never binds, so noblock and weighted track plain DCSA's physics,
  // while nojump free-runs: with constant rates evenly spaced over
  // [1-rho, 1+rho] and no catch-up, the skew at the final sample is
  // exactly 2 * rho * horizon.
  for (const char* store : {"columns", "adapter"}) {
    auto dcsa_cfg = small_config();
    dcsa_cfg.store = store;
    const auto dcsa = gcs::harness::run_experiment(dcsa_cfg);

    auto nojump_cfg = dcsa_cfg;
    nojump_cfg.variant = "nojump";
    const auto nojump = gcs::harness::run_experiment(nojump_cfg);
    EXPECT_NEAR(nojump.max_global_skew, 2.0 * 0.05 * 40.0, 1e-6) << store;
    EXPECT_GT(nojump.max_global_skew, dcsa.max_global_skew) << store;
    EXPECT_EQ(nojump.run_stats.jumps, 0u) << store;
    EXPECT_GT(nojump.run_stats.messages_sent, 0u) << store;  // broadcasts

    for (const char* variant : {"noblock", "weighted:0.5"}) {
      auto cfg = dcsa_cfg;
      cfg.variant = variant;
      const auto result = gcs::harness::run_experiment(cfg);
      EXPECT_EQ(result.global_violations, 0u) << store << "/" << variant;
      EXPECT_NEAR(result.max_global_skew, dcsa.max_global_skew, 1e-9)
          << store << "/" << variant;
    }
  }
}

// Runs `cfg` expecting std::invalid_argument whose message quotes `spec`.
void expect_rejected(const gcs::harness::ExperimentConfig& cfg,
                     const std::string& spec) {
  try {
    gcs::harness::run_experiment(cfg);
    ADD_FAILURE() << "'" << spec << "' was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + spec + "'"), std::string::npos)
        << "error for '" << spec << "' does not quote it: " << e.what();
  }
}

TEST(RunExperiment, VariantValidationIsLoud) {
  // A malformed variant must refuse to run rather than silently measure
  // some other protocol.
  auto cfg = small_config();
  cfg.store = "adapter";
  for (const char* spec :
       {"bogus", "weighted:0", "weighted:1.5", "weighted:0.5abc",
        "weighted:0.5:0.7", "weighted:", "nojumpy"}) {
    cfg.variant = spec;
    expect_rejected(cfg, spec);
  }
}

TEST(RunExperiment, DelayValidationIsLoud) {
  auto cfg = small_config();
  for (const char* spec :
       {"uniform:", "constant:0.5junk", "uniform:0.25x:1", "constantly",
        "uniform:0.25:1:2", "uniform:-1", "uniform:0.8:0.2"}) {
    cfg.delay = spec;
    expect_rejected(cfg, spec);
  }
}

TEST(RunExperiment, SampleAtHorizonBoundaryFiresUnderBothEngines) {
  // The periodic sample scheduled exactly at t == horizon fires: the
  // engine's run_until executes events with t <= horizon whichever
  // accepted `engine` value is set, so horizon == k*sample_dt (with both
  // exact in binary floating point) yields exactly k samples.  Pinned so
  // `samples` cannot drift across engine refactors.
  for (const char* engine : {"calendar", "heap"}) {
    auto cfg = small_config();
    cfg.engine = engine;
    cfg.horizon = 10.0;
    cfg.sample_dt = 0.5;
    const auto result = gcs::harness::run_experiment(cfg);
    EXPECT_EQ(result.samples, 20u) << engine;  // t = 0.5, 1.0, ..., 10.0
  }
}

TEST(RunExperiment, ReportsDeliveryEventStats) {
  auto cfg = small_config();
  cfg.topology = "complete";
  cfg.delay = "constant:0.5";
  const auto batched = gcs::harness::run_experiment(cfg);
  cfg.delivery = "per-receiver";
  const auto unbatched = gcs::harness::run_experiment(cfg);
  // Per-receiver: one engine event per message.  Batched on a complete
  // graph under constant delay: one event per broadcast fan-out.
  EXPECT_EQ(unbatched.run_stats.delivery_events,
            unbatched.run_stats.messages_sent);
  EXPECT_LT(batched.run_stats.delivery_events,
            batched.run_stats.messages_sent / 2);
  EXPECT_LT(batched.events_executed, unbatched.events_executed);
}

}  // namespace
