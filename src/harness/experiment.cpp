#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dcsa_node.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "util/number.hpp"

namespace gcs::harness {

namespace {

// The name dispatch of each string key.  run_experiment builds through
// these, and check_config calls them without building anything.
using MakeTopology = net::Topology (*)(std::size_t n);
MakeTopology topology_maker(const std::string& topology) {
  if (topology == "path") return net::make_path;
  if (topology == "ring") return net::make_ring;
  if (topology == "star") {
    return [](std::size_t n) { return net::make_star(n); };
  }
  if (topology == "complete") return net::make_complete;
  throw std::invalid_argument("unknown topology '" + topology + "'");
}

using MakeSchedule = clk::RateSchedule (*)(const ExperimentConfig& cfg,
                                           std::size_t i);
MakeSchedule drift_maker(const std::string& drift) {
  if (drift == "spread") {
    return [](const ExperimentConfig& cfg, std::size_t i) {
      const std::size_t n = cfg.params.n;
      const double rho = cfg.params.rho;
      const double f = n > 1 ? static_cast<double>(i) / (n - 1) : 0.5;
      return clk::RateSchedule(1.0 - rho + 2.0 * rho * f);
    };
  }
  if (drift == "walk") {
    return [](const ExperimentConfig& cfg, std::size_t i) {
      return clk::RateSchedule::random_walk(
          cfg.params.rho, /*step_dt=*/1.0, /*sigma=*/cfg.params.rho / 4.0,
          /*seed=*/cfg.seed * 7919 + i);
    };
  }
  if (drift == "two-camp") {
    return [](const ExperimentConfig& cfg, std::size_t i) {
      const double rho = cfg.params.rho;
      return clk::RateSchedule(i < cfg.params.n / 2 ? 1.0 + rho : 1.0 - rho);
    };
  }
  throw std::invalid_argument("unknown drift '" + drift + "'");
}

net::Scenario build_scenario(const ExperimentConfig& cfg) {
  if (cfg.scenario) return *cfg.scenario;
  return net::make_static_scenario(topology_maker(cfg.topology)(cfg.params.n));
}

std::vector<clk::RateSchedule> build_schedules(const ExperimentConfig& cfg) {
  const MakeSchedule make = drift_maker(cfg.drift);
  std::vector<clk::RateSchedule> schedules;
  schedules.reserve(cfg.params.n);
  for (std::size_t i = 0; i < cfg.params.n; ++i) {
    schedules.push_back(make(cfg, i));
  }
  return schedules;
}

double spec_number(const std::string& text) {
  double v = 0.0;
  if (!util::parse_double(text, &v)) {
    throw std::invalid_argument("'" + text + "' is not a number");
  }
  return v;
}

net::DelayModel build_delay(const ExperimentConfig& cfg) {
  const double T = cfg.params.T;
  const std::size_t colon = cfg.delay.find(':');
  const std::string kind = cfg.delay.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? "" : cfg.delay.substr(colon + 1);
  if (kind == "uniform") {
    // "uniform" = [0, T]; "uniform:lo" = [lo, T]; "uniform:lo:hi".  A
    // positive lo gives the delay model the floor sharded runs need.
    double lo = 0.0;
    double hi = T;
    if (colon != std::string::npos) {
      const std::size_t mid = rest.find(':');
      lo = spec_number(rest.substr(0, mid));
      if (mid != std::string::npos) hi = spec_number(rest.substr(mid + 1));
    }
    return net::make_uniform_delay(T, lo, hi);
  }
  if (kind == "constant") {
    return net::make_constant_delay(
        T, colon == std::string::npos ? T : spec_number(rest));
  }
  throw std::invalid_argument("unknown delay kind");
}

net::LinkModel build_link(const ExperimentConfig& cfg) {
  net::DelayModel delay;
  try {
    delay = build_delay(cfg);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("delay '" + cfg.delay + "': " + e.what());
  }
  return net::LinkModel(std::move(delay), net::parse_traffic(cfg.traffic));
}

void check_engine(const std::string& engine) {
  if (engine == "calendar" || engine == "heap") return;
  throw std::invalid_argument("unknown engine '" + engine + "'");
}

// Kept for config compatibility like `engine`: both values select the
// one classic delivery path, and any other value is rejected.
void check_delivery(const std::string& delivery) {
  if (delivery == "batched" || delivery == "per-receiver") return;
  throw std::invalid_argument("unknown delivery '" + delivery + "'");
}

// "columns" drives DcsaColumns directly; "adapter" runs the identical
// protocol through per-node DcsaNode objects (the reference path the
// store-equivalence matrix byte-compares against).
bool adapter_store(const std::string& store) {
  if (store == "adapter") return true;
  if (store == "columns") return false;
  throw std::invalid_argument("unknown store '" + store +
                              "' (expected \"columns\" or \"adapter\")");
}

}  // namespace

void check_config(const ExperimentConfig& cfg, const std::string& where) {
  const core::SyncParams& p = cfg.params;
  const std::pair<const char*, double> finite[] = {
      {"rho", p.rho}, {"T", p.T}, {"D", p.D}, {"B0", p.B0},
      {"horizon", cfg.horizon}, {"sample_dt", cfg.sample_dt}};
  try {
    for (const auto& [key, value] : finite) {
      if (!std::isfinite(value)) {
        throw std::invalid_argument(std::string(key) + " must be finite, got " +
                                    std::to_string(value));
      }
    }
    if (!cfg.scenario) topology_maker(cfg.topology);
    drift_maker(cfg.drift);
    build_link(cfg);
    check_engine(cfg.engine);
    check_delivery(cfg.delivery);
    adapter_store(cfg.store);
    core::Variant::parse(cfg.variant);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(where + ": " + e.what());
  }
}

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                obs::Recorder* recorder) {
  const core::SyncParams& p = cfg.params;
  if (p.n < 2) throw std::invalid_argument("run_experiment: need n >= 2");
  // Node ids (and the count, which loops compare ids against) are 32-bit.
  if (p.n > std::numeric_limits<net::NodeId>::max()) {
    throw std::invalid_argument(
        "run_experiment: n = " + std::to_string(p.n) +
        " exceeds the 32-bit node-id limit 4294967295");
  }
  check_config(cfg, "run_experiment");
  if (cfg.horizon <= 0.0 || cfg.sample_dt <= 0.0) {
    throw std::invalid_argument("run_experiment: bad horizon/sample_dt");
  }

  net::Scenario scenario = build_scenario(cfg);
  if (scenario.n != p.n) {
    throw std::invalid_argument(
        "run_experiment: scenario size disagrees with params.n");
  }

  core::SimOptions options = cfg.options;
  options.seed = cfg.seed;
  options.recorder = recorder;
  options.shards = static_cast<std::size_t>(cfg.shards);
  const core::Variant variant = core::Variant::parse(cfg.variant);
  core::NetworkSimulation::NodeFactory factory;
  if (adapter_store(cfg.store)) {
    factory = [p, variant](core::NodeId) {
      return std::make_unique<core::DcsaNode>(p, variant);
    };
  }
  core::NetworkSimulation sim(p, scenario.to_dynamic_graph(), build_link(cfg),
                              build_schedules(cfg), std::move(factory),
                              options, variant);

  ExperimentResult result;
  result.name = cfg.name;
  result.global_skew_bound = p.global_skew_bound();
  result.local_skew_floor = p.effective_b0();

  const core::BFunction& bfunc = sim.bfunc();
  const double slack = options.conformance_slack;
  obs::SeriesAggregator series;
  // Sample buffers reused across ticks: one batch advance() per sample
  // instead of n virtual calls (the logical values bit-match the
  // per-node accessor, so the series bytes cannot move).
  std::vector<double> hw_sample;
  std::vector<double> logical_sample;
  sim.schedule_periodic(cfg.sample_dt, cfg.sample_dt, [&](sim::Time t) {
    ++result.samples;
    sim.sample_clocks(hw_sample, logical_sample);
    double lo = logical_sample[0];
    double hi = lo;
    for (std::size_t i = 1; i < sim.size(); ++i) {
      const double L = logical_sample[i];
      lo = std::min(lo, L);
      hi = std::max(hi, L);
    }
    obs::SeriesSample sample;
    sample.t = t;
    sample.global_skew = hi - lo;
    result.max_global_skew = std::max(result.max_global_skew, sample.global_skew);
    if (sample.global_skew > result.global_skew_bound + slack) {
      ++result.global_violations;
    }

    for (const net::Edge& e : sim.current_edges()) {
      const double local = std::abs(logical_sample[e.u] - logical_sample[e.v]);
      result.max_local_skew = std::max(result.max_local_skew, local);
      sample.max_local_skew = std::max(sample.max_local_skew, local);
      // Loosest envelope any conforming node could hold: hardware age of
      // the slowest admissible clock (see NetworkSimulation's checker).
      const double age_hw = (1.0 - p.rho) * sim.edge_age(e);
      const double envelope = bfunc(age_hw);
      if (local > envelope + slack) ++result.envelope_violations;
      // B is bounded below by b0 > 0, so the ratio is always finite;
      // it is the fraction of the allowed envelope this edge is using.
      sample.max_envelope_ratio =
          std::max(sample.max_envelope_ratio, local / envelope);
      ++sample.live_edges;
    }
    const core::RunStats& s = sim.stats();
    sample.in_flight =
        s.messages_sent - s.messages_delivered - s.messages_dropped;
    sample.engine_pending = sim.engine_pending();
    sample.queue_bytes = sim.max_queue_backlog();
    series.add(sample);
    if (recorder != nullptr) recorder->on_sample(sample);
  });

  sim.run_until(cfg.horizon);

  result.events_executed = sim.events_executed();
  result.clamped_events = sim.engine_clamped_count();
  result.run_stats = sim.stats();
  result.engine_stats = sim.engine_stats();
  result.series = series.summary();
  // Fold in the simulator's own delivery-time envelope checks (same
  // property, denser check points).  Monotonicity failures are a
  // different defect class and stay in run_stats only.
  result.envelope_violations += sim.stats().conformance_envelope_failures;
  return result;
}

}  // namespace gcs::harness
