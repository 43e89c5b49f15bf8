// perfbench_layers -- the benchmark's traced runner into the gcs library.
//
//   perfbench_layers setup --reps K [--key=value ...]
//   perfbench_layers trace --out DIR [--check] [--series] [--trace[=N]]
//                    [--jobs N] [--key=value ...]
//
// Both modes expand the same --key=value axes gcs_run takes through
// cli::build_campaign, then call each layer's public build functions
// directly, timing every call and sampling /proc/self/status around it:
//
//   net   cli::instantiate (ScenarioSpec::build -> net::make_*_scenario),
//         Scenario::to_dynamic_graph, net::LinkModel
//   clk   clk::RateSchedule::random_walk / constant schedules
//   core  core::NetworkSimulation construction, then run_until in chunks
//
// `setup` repeats that build K times and prints each repetition's set-up
// seconds (campaign expansion + every cell's build, destruction excluded).
// `trace` builds and runs every cell once with the harness sampler
// replicated, reads RunStats / EngineStats / NodeStore::arena_bytes,
// times harness::to_json and the result_from_json round trip and the
// obs::TelemetryRecorder renderers, replays the cells' hardware clocks out
// to the horizon, and finally times cli::run_campaign on the whole
// campaign.  It prints per-cell trajectory counters (for run.py's
// fidelity check against gcs_run) and the per-layer metrics.
//
// Output is one JSON line on stdout.  Exit 2 on bad usage or a cell the
// replica cannot build.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/campaign.hpp"
#include "cli/runner.hpp"
#include "clk/clock.hpp"
#include "core/ablation_variants.hpp"
#include "core/dcsa_node.hpp"
#include "core/network_sim.hpp"
#include "core/weighted_dcsa_node.hpp"
#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "net/delay.hpp"
#include "net/link.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace {

namespace json = gcs::util::json;
namespace fs = std::filesystem;
using gcs::cli::Campaign;
using gcs::cli::Cell;
using gcs::harness::ExperimentConfig;
using gcs::harness::ExperimentResult;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// VmRSS / VmHWM of this process, in KiB.
struct Mem {
  double rss_kb = 0.0;
  double hwm_kb = 0.0;
};

Mem read_mem() {
  Mem mem;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) mem.rss_kb = std::atof(line.c_str() + 6);
    if (line.rfind("VmHWM:", 0) == 0) mem.hwm_kb = std::atof(line.c_str() + 6);
  }
  return mem;
}

// The replica must build exactly what harness::run_experiment builds; the
// three helpers below follow experiment.cpp's private ones, and
// run.py's fidelity check (trajectory counters equal to gcs_run's) fails
// the traced run if they ever drift apart.
std::vector<gcs::clk::RateSchedule> build_schedules(const ExperimentConfig& cfg) {
  const std::size_t n = cfg.params.n;
  const double rho = cfg.params.rho;
  std::vector<gcs::clk::RateSchedule> schedules;
  schedules.reserve(n);
  if (cfg.drift == "spread") {
    for (std::size_t i = 0; i < n; ++i) {
      const double f = n > 1 ? static_cast<double>(i) / (n - 1) : 0.5;
      schedules.emplace_back(1.0 - rho + 2.0 * rho * f);
    }
  } else if (cfg.drift == "walk") {
    for (std::size_t i = 0; i < n; ++i) {
      schedules.push_back(gcs::clk::RateSchedule::random_walk(
          rho, /*step_dt=*/1.0, /*sigma=*/rho / 4.0,
          /*seed=*/cfg.seed * 7919 + i));
    }
  } else {
    throw std::invalid_argument("perfbench: unsupported drift '" + cfg.drift +
                                "'");
  }
  return schedules;
}

gcs::net::DelayModel build_delay(const ExperimentConfig& cfg) {
  const double T = cfg.params.T;
  const std::string& d = cfg.delay;
  if (d.rfind("uniform:", 0) == 0) {
    const std::string rest = d.substr(8);
    const std::size_t colon = rest.find(':');
    const double lo = std::stod(rest.substr(0, colon));
    const double hi =
        colon == std::string::npos ? T : std::stod(rest.substr(colon + 1));
    return gcs::net::make_uniform_delay(T, lo, hi);
  }
  if (d.rfind("constant:", 0) == 0) {
    return gcs::net::make_constant_delay(T, std::stod(d.substr(9)));
  }
  throw std::invalid_argument("perfbench: unsupported delay '" + d +
                              "' (spell out uniform:lo[:hi] or constant:x)");
}

gcs::core::NetworkSimulation::NodeFactory build_factory(
    const ExperimentConfig& cfg) {
  const gcs::core::SyncParams p = cfg.params;
  if (cfg.variant == "dcsa") {
    return [p](gcs::core::NodeId) {
      return std::make_unique<gcs::core::DcsaNode>(p);
    };
  }
  if (cfg.variant.rfind("weighted:", 0) == 0) {
    const double w = std::stod(cfg.variant.substr(9));
    return [p, w](gcs::core::NodeId) {
      return std::make_unique<gcs::core::WeightedDcsaNode>(
          p, [w](gcs::core::NodeId, gcs::core::NodeId) { return w; },
          /*min_weight=*/w);
    };
  }
  if (cfg.variant == "noblock") {
    return [p](gcs::core::NodeId) {
      return std::make_unique<gcs::core::NoBlockDcsaNode>(p);
    };
  }
  if (cfg.variant == "nojump") {
    return [p](gcs::core::NodeId) {
      return std::make_unique<gcs::core::NoJumpDcsaNode>(p);
    };
  }
  throw std::invalid_argument("perfbench: unsupported variant '" +
                              cfg.variant + "' (spell out weighted:w)");
}

// One cell built ready for its first event, with the time and RSS growth
// of each layer's build call.
struct BuiltCell {
  ExperimentConfig cfg;
  std::unique_ptr<gcs::core::NetworkSimulation> sim;
  double net_s = 0.0;
  double clk_s = 0.0;
  double core_s = 0.0;
  double net_kb = 0.0;
  double clk_kb = 0.0;
  double core_kb = 0.0;
};

BuiltCell build_cell(const Cell& cell, gcs::obs::Recorder* recorder) {
  if (cell.scenario.is_static()) {
    throw std::invalid_argument(
        "perfbench: workloads must name a generated scenario");
  }
  BuiltCell b;
  const Mem m0 = read_mem();
  auto t = Clock::now();
  b.cfg = gcs::cli::instantiate(cell);
  gcs::net::DynamicGraph graph = b.cfg.scenario->to_dynamic_graph();
  gcs::net::LinkModel link(build_delay(b.cfg),
                           gcs::net::parse_traffic(b.cfg.traffic));
  b.net_s = seconds_since(t);
  const Mem m1 = read_mem();

  t = Clock::now();
  std::vector<gcs::clk::RateSchedule> schedules = build_schedules(b.cfg);
  b.clk_s = seconds_since(t);
  const Mem m2 = read_mem();

  gcs::core::SimOptions options = b.cfg.options;
  options.seed = b.cfg.seed;
  if (b.cfg.engine != "calendar" && b.cfg.engine != "heap") {
    throw std::invalid_argument("perfbench: unknown engine " + b.cfg.engine);
  }
  options.engine_policy = b.cfg.engine == "calendar"
                              ? gcs::sim::EnginePolicy::kCalendar
                              : gcs::sim::EnginePolicy::kHeap;
  options.batched_delivery = b.cfg.delivery == "batched";
  options.recorder = recorder;
  options.shards = static_cast<std::size_t>(b.cfg.shards);
  t = Clock::now();
  if (b.cfg.store == "columns") {
    if (b.cfg.variant != "dcsa") {
      throw std::invalid_argument("perfbench: columns store runs dcsa only");
    }
    b.sim = std::make_unique<gcs::core::NetworkSimulation>(
        b.cfg.params, std::move(graph), std::move(link), std::move(schedules),
        options);
  } else if (b.cfg.store == "adapter") {
    b.sim = std::make_unique<gcs::core::NetworkSimulation>(
        b.cfg.params, std::move(graph), std::move(link), std::move(schedules),
        build_factory(b.cfg), options);
  } else {
    throw std::invalid_argument("perfbench: unknown store " + b.cfg.store);
  }
  b.core_s = seconds_since(t);
  const Mem m3 = read_mem();

  b.net_kb = m1.rss_kb - m0.rss_kb;
  b.clk_kb = m2.rss_kb - m1.rss_kb;
  // A constructor that raised the high-water mark is charged that growth
  // (it briefly holds the schedules and the clocks); one that fit under an
  // earlier cell's peak is charged what it retained.
  b.core_kb = m3.hwm_kb > m2.hwm_kb ? m3.hwm_kb - m2.rss_kb
                                    : m3.rss_kb - m2.rss_kb;
  return b;
}

// harness::run_experiment's sampler, verbatim in effect: the samples are
// engine events, so the replica needs them for an identical event count,
// and max_global_skew is one of the compared counters.
void attach_sampler(gcs::core::NetworkSimulation& sim,
                    const ExperimentConfig& cfg, ExperimentResult& result,
                    gcs::obs::SeriesAggregator& series,
                    gcs::obs::Recorder* recorder) {
  const gcs::core::SyncParams& p = cfg.params;
  const double slack = cfg.options.conformance_slack;
  result.global_skew_bound = p.global_skew_bound();
  result.local_skew_floor = p.effective_b0();
  gcs::core::NetworkSimulation* s = &sim;
  sim.schedule_periodic(
      cfg.sample_dt, cfg.sample_dt,
      [s, p, slack, &result, &series, recorder, hw = std::vector<double>(),
       logical = std::vector<double>()](double t) mutable {
        ++result.samples;
        s->sample_clocks(hw, logical);
        const auto [lo, hi] = std::minmax_element(logical.begin(), logical.end());
        gcs::obs::SeriesSample sample;
        sample.t = t;
        sample.global_skew = *hi - *lo;
        result.max_global_skew =
            std::max(result.max_global_skew, sample.global_skew);
        if (sample.global_skew > result.global_skew_bound + slack) {
          ++result.global_violations;
        }
        const gcs::core::BFunction& bfunc = s->bfunc();
        for (const gcs::net::Edge& e : s->current_edges()) {
          const double local = std::abs(logical[e.u] - logical[e.v]);
          result.max_local_skew = std::max(result.max_local_skew, local);
          sample.max_local_skew = std::max(sample.max_local_skew, local);
          const double envelope = bfunc((1.0 - p.rho) * s->edge_age(e));
          if (local > envelope + slack) ++result.envelope_violations;
          sample.max_envelope_ratio =
              std::max(sample.max_envelope_ratio, local / envelope);
          ++sample.live_edges;
        }
        const gcs::core::RunStats& st = s->stats();
        sample.in_flight =
            st.messages_sent - st.messages_delivered - st.messages_dropped;
        sample.engine_pending = s->engine_pending();
        sample.queue_bytes = s->max_queue_backlog();
        series.add(sample);
        if (recorder != nullptr) recorder->on_sample(sample);
      });
}

Campaign expand(const std::map<std::string, std::string>& axes) {
  Campaign campaign = gcs::cli::build_campaign(nullptr, axes);
  if (campaign.cells.empty()) {
    throw std::invalid_argument("perfbench: workload expands to zero cells");
  }
  return campaign;
}

// Set-up time is the sum of the timed public calls only: the RSS probes
// between them would otherwise be a sizeable share of a small cell.
int run_setup(const std::map<std::string, std::string>& axes, int reps) {
  json::Array times;
  for (int r = 0; r < reps; ++r) {
    const auto t = Clock::now();
    const Campaign campaign = expand(axes);
    double total = seconds_since(t);
    for (const Cell& cell : campaign.cells) {
      const BuiltCell b = build_cell(cell, nullptr);
      total += b.net_s + b.clk_s + b.core_s;
    }
    times.push_back(total);
  }
  json::Value out;
  out["setup_s"] = std::move(times);
  std::cout << json::dump(out) << "\n";
  return 0;
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

constexpr int kChunks = 8;  // run_until calls per cell

int run_trace(const std::map<std::string, std::string>& axes,
              const gcs::cli::RunnerOptions& runner) {
  const Mem base = read_mem();
  const auto replica_start = Clock::now();
  auto t = Clock::now();
  const Campaign campaign = expand(axes);
  const double expand_s = seconds_since(t);

  // Sums over cells; per-chunk totals index by chunk.
  double net_s = 0, clk_s = 0, core_s = 0, run_s = 0;
  double net_kb = 0, clk_kb = 0, core_kb = 0, run_kb = 0;
  double serialize_s = 0, roundtrip_s = 0, trace_render_s = 0, series_s = 0;
  double nodes = 0, arena = 0, sync_delay_sum = 0;
  std::uint64_t events = 0, delivered = 0, dropped = 0, sent = 0,
                delivery_events = 0, topo_events = 0, traffic_packets = 0,
                traffic_dropped = 0, ecn_marks = 0, max_pending = 0,
                bucket_scans = 0, windows = 0, staged = 0, seen = 0, kept = 0;
  double chunk_events[kChunks] = {};
  double chunk_secs[kChunks] = {};
  bool roundtrip_ok = true;
  json::Array cells;

  for (const Cell& cell : campaign.cells) {
    std::optional<gcs::obs::TelemetryRecorder> recorder;
    if (runner.series || runner.trace) {
      recorder.emplace(runner.trace ? runner.trace_limit : 0);
    }
    BuiltCell b = build_cell(cell, recorder ? &*recorder : nullptr);
    net_s += b.net_s;
    clk_s += b.clk_s;
    core_s += b.core_s;
    net_kb += b.net_kb;
    clk_kb += b.clk_kb;
    core_kb += b.core_kb;
    topo_events += b.cfg.scenario->events.size();
    gcs::core::NetworkSimulation& sim = *b.sim;
    nodes += static_cast<double>(sim.size());
    arena += static_cast<double>(sim.store().arena_bytes());

    ExperimentResult result;
    result.name = b.cfg.name;
    gcs::obs::SeriesAggregator series;
    attach_sampler(sim, b.cfg, result, series, recorder ? &*recorder : nullptr);

    const double hwm_before_run = read_mem().hwm_kb;
    for (int k = 1; k <= kChunks; ++k) {
      const double until =
          k == kChunks ? b.cfg.horizon : b.cfg.horizon * k / kChunks;
      const std::uint64_t ev0 = sim.events_executed();
      t = Clock::now();
      sim.run_until(until);
      const double dt = seconds_since(t);
      run_s += dt;
      chunk_secs[k - 1] += dt;
      chunk_events[k - 1] += static_cast<double>(sim.events_executed() - ev0);
    }
    run_kb += read_mem().hwm_kb - hwm_before_run;

    result.events_executed = sim.events_executed();
    result.clamped_events = sim.engine_clamped_count();
    result.run_stats = sim.stats();
    result.engine_stats = sim.engine_stats();
    result.series = series.summary();
    result.envelope_violations += result.run_stats.conformance_envelope_failures;

    const gcs::core::RunStats& rs = result.run_stats;
    const gcs::sim::EngineStats& es = result.engine_stats;
    events += result.events_executed;
    delivered += rs.messages_delivered;
    dropped += rs.messages_dropped;
    sent += rs.messages_sent;
    delivery_events += rs.delivery_events;
    traffic_packets += rs.traffic_packets;
    traffic_dropped += rs.traffic_dropped;
    ecn_marks += rs.ecn_marks;
    sync_delay_sum += rs.sync_delay_sum;
    max_pending = std::max<std::uint64_t>(max_pending, es.max_pending);
    bucket_scans += es.calendar_bucket_scans;
    windows += es.shard_windows;
    staged += es.shard_staged_events;

    t = Clock::now();
    const json::Value doc = gcs::harness::to_json(result);
    const std::string text = json::dump(doc, 2);
    serialize_s += seconds_since(t);
    t = Clock::now();
    const ExperimentResult decoded =
        gcs::harness::result_from_json(json::parse(text));
    roundtrip_ok =
        roundtrip_ok && json::dump(gcs::harness::to_json(decoded), 2) == text;
    roundtrip_s += seconds_since(t);

    if (recorder) {
      seen += recorder->trace_seen();
      kept += recorder->trace_kept();
      t = Clock::now();
      const std::string trace = recorder->trace_jsonl();
      trace_render_s += seconds_since(t);
      t = Clock::now();
      const std::string rows = recorder->series_csv();
      series_s += seconds_since(t);
    }

    json::Value c;
    c["label"] = cell.label;
    c["events_executed"] = result.events_executed;
    c["messages_delivered"] = rs.messages_delivered;
    c["messages_dropped"] = rs.messages_dropped;
    c["messages_sent"] = rs.messages_sent;
    c["jumps"] = rs.jumps;
    c["max_global_skew"] = result.max_global_skew;
    c["samples"] = result.samples;
    c["clamped_events"] = result.clamped_events;
    c["violations"] = result.global_violations + result.envelope_violations +
                      rs.conformance_monotonicity_failures;
    cells.push_back(std::move(c));
  }
  const double replica_wall_s = seconds_since(replica_start);
  const Mem after_cells = read_mem();

  // Clock replay: the workload's own schedules, fresh clocks, queried on a
  // 64-point grid out to the horizon, time-major like the event loop.
  constexpr int kGrid = 64;
  double value_at_s = 0, time_when_s = 0, queries = 0, sink = 0;
  for (const Cell& cell : campaign.cells) {
    const ExperimentConfig cfg = cell.config;
    std::vector<gcs::clk::HardwareClock> clocks;
    for (gcs::clk::RateSchedule& s : build_schedules(cfg)) {
      clocks.emplace_back(std::move(s));
    }
    t = Clock::now();
    for (int g = 1; g <= kGrid; ++g) {
      const double at = cfg.horizon * g / kGrid;
      for (const gcs::clk::HardwareClock& c : clocks) sink += c.value_at(at);
    }
    value_at_s += seconds_since(t);
    t = Clock::now();
    for (int g = 1; g <= kGrid; ++g) {
      const double v = cfg.horizon * (1.0 - cfg.params.rho) * g / kGrid;
      for (const gcs::clk::HardwareClock& c : clocks) sink += c.time_when(v);
    }
    time_when_s += seconds_since(t);
    queries += static_cast<double>(kGrid) * static_cast<double>(clocks.size());
  }

  // The cli layer end to end: the same campaign through run_campaign.
  gcs::cli::CampaignOutcome outcome;
  std::ostringstream log;
  t = Clock::now();
  const int rc = gcs::cli::run_campaign(campaign, runner, log, &outcome);
  const double campaign_s = seconds_since(t);
  double cell_compute_s = 0.0;
  for (const gcs::cli::CellOutcome& c : outcome.cells) {
    cell_compute_s += c.wall_ms / 1e3;
  }
  const double jobs = std::min<double>(std::max(runner.jobs, 1),
                                       static_cast<double>(outcome.cells.size()));

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  json::Value m;
  m["net.scenario_build_s"] = net_s;
  m["net.topology_events"] = topo_events;
  m["net.bytes_per_node"] = ratio(net_kb * 1024, nodes);
  m["net.traffic_packets"] = traffic_packets;
  m["net.traffic_dropped"] = traffic_dropped;
  m["net.ecn_marks"] = ecn_marks;
  m["net.sync_delay_mean_s"] = ratio(sync_delay_sum, static_cast<double>(sent));
  m["clk.schedule_build_s"] = clk_s;
  m["clk.bytes_per_node"] = ratio(clk_kb * 1024, nodes);
  m["clk.value_at_ns"] = ratio(value_at_s * 1e9, queries);
  m["clk.time_when_ns"] = ratio(time_when_s * 1e9, queries);
  m["core.sim_build_s"] = core_s;
  m["core.sim_build_bytes_per_node"] = ratio(core_kb * 1024, nodes);
  m["core.arena_bytes_per_node"] = ratio(arena, nodes);
  m["core.run_s"] = run_s;
  m["core.run_bytes_per_node"] = ratio(run_kb * 1024, nodes);
  m["core.msgs_delivered"] = delivered;
  m["core.msgs_dropped"] = dropped;
  m["core.msgs_per_delivery_event"] =
      ratio(static_cast<double>(delivered), static_cast<double>(delivery_events));
  m["sim.events"] = events;
  m["sim.max_pending"] = max_pending;
  m["sim.bucket_scans_per_event"] =
      ratio(static_cast<double>(bucket_scans), static_cast<double>(events));
  m["sim.chunk_rate_ratio"] =
      ratio(ratio(chunk_events[kChunks - 1], chunk_secs[kChunks - 1]),
            ratio(chunk_events[0], chunk_secs[0]));
  m["sim.shard_windows"] = windows;
  m["sim.staged_share"] =
      ratio(static_cast<double>(staged), static_cast<double>(events));
  m["sim.events_per_window"] =
      ratio(static_cast<double>(events), static_cast<double>(windows));
  m["harness.serialize_s"] = serialize_s;
  m["harness.roundtrip_s"] = roundtrip_s;
  m["obs.trace_records_seen"] = seen;
  m["obs.trace_kept"] = kept;
  m["obs.trace_render_us_per_record"] =
      ratio(trace_render_s * 1e6, static_cast<double>(kept));
  m["obs.series_render_s"] = series_s;
  m["cli.expand_s"] = expand_s;
  m["cli.campaign_s"] = campaign_s;
  m["cli.cell_compute_s"] = cell_compute_s;
  m["cli.outside_cells_share"] =
      std::max(0.0, 1.0 - ratio(cell_compute_s / jobs, campaign_s));
  m["cli.artifact_bytes"] = tree_bytes(outcome.out_dir);

  json::Value out;
  out["cells"] = std::move(cells);
  out["metrics"] = std::move(m);
  out["replica_wall_s"] = replica_wall_s;
  out["roundtrip_ok"] = roundtrip_ok;
  out["campaign_rc"] = rc;
  out["campaign_failed_cells"] = outcome.failed_cells + outcome.errored_cells;
  out["nodes"] = nodes;
  // Memory attribution, KiB: the process before any build, the layers'
  // growth, and the high-water mark after the replica cells.
  json::Value mem;
  mem["base_kb"] = base.rss_kb;
  mem["net_kb"] = net_kb;
  mem["clk_kb"] = clk_kb;
  mem["core_kb"] = core_kb;
  mem["run_kb"] = run_kb;
  mem["hwm_kb"] = after_cells.hwm_kb;
  out["mem"] = std::move(mem);
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["compiler"] = __VERSION__;
  out["sink"] = sink;  // keeps the clock replay observable
  std::cout << json::dump(out) << "\n";
  return 0;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_layers: " << why
            << "\nusage: perfbench_layers setup --reps K [--key=value ...]\n"
               "       perfbench_layers trace --out DIR [--check] [--series] "
               "[--trace[=N]] [--jobs N] [--key=value ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing mode");
  const std::string mode = argv[1];
  if (mode != "setup" && mode != "trace") return usage("unknown mode " + mode);
  std::map<std::string, std::string> axes;
  gcs::cli::RunnerOptions runner;
  runner.quiet = true;
  int reps = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      runner.check = true;
    } else if (arg == "--series") {
      runner.series = true;
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      runner.trace = true;
      if (arg.size() > 8) {
        const long long limit = std::atoll(arg.c_str() + 8);
        if (limit < 1) return usage("--trace wants a positive integer");
        runner.trace_limit = static_cast<std::uint64_t>(limit);
      }
    } else if ((arg == "--jobs" || arg == "--reps" || arg == "--out") &&
               i + 1 < argc) {
      const std::string value = argv[++i];
      if (arg == "--out") {
        runner.out_dir = value;
      } else {
        const int v = std::atoi(value.c_str());
        if (v < 1) return usage(arg + " wants a positive integer");
        (arg == "--jobs" ? runner.jobs : reps) = v;
      }
    } else if (arg.rfind("--", 0) == 0 && arg.find('=') != std::string::npos) {
      const std::size_t eq = arg.find('=');
      axes[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else {
      return usage("unexpected argument " + arg);
    }
  }
  if (mode == "trace" && runner.out_dir.empty()) return usage("trace needs --out");
  try {
    return mode == "setup" ? run_setup(axes, reps) : run_trace(axes, runner);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 2;
  }
}
