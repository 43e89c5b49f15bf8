// gcs::harness -- the experiment layer: a declarative config in, a
// measured + audited result out.
//
// run_experiment assembles a NetworkSimulation from strings and numbers
// (so benches and future CLI tools never hand-wire the stack), samples
// the network every `sample_dt`, and reports:
//   * max global skew (max - min over all logical clocks) against the
//     analytic bound G(n), counting violations;
//   * max local skew over live edges against the B(age) envelope,
//     counting violations (the paper's gradient property);
//   * the simulator's run statistics and event counts.
// A correct run reports zero violations; the benches assert exactly that
// narrative (bench_churn's `violations` counter).
#ifndef GCS_HARNESS_EXPERIMENT_HPP
#define GCS_HARNESS_EXPERIMENT_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "core/network_sim.hpp"
#include "core/params.hpp"
#include "net/scenario.hpp"
#include "obs/recorder.hpp"

namespace gcs::harness {

struct ExperimentConfig {
  std::string name = "experiment";
  core::SyncParams params;

  // Explicit dynamic workload; when unset, a static scenario is built
  // from `topology`: "path" | "ring" | "star" | "complete".
  std::optional<net::Scenario> scenario;
  std::string topology = "path";

  // Hardware drift model: "spread" (constant rates evenly spaced over
  // [1-rho, 1+rho]), "walk" (per-node random-walk drift), or "two-camp"
  // (half the nodes at 1+rho, half at 1-rho).
  std::string drift = "spread";

  // Delay model: "uniform[:lo[:hi]]" (uniform over [lo, hi], defaults
  // [0, T]) or "constant[:x]" (exactly x, default T).  Sharded runs need
  // a positive delay floor, i.e. a constant delay or uniform with
  // lo > 0.
  std::string delay = "uniform";

  // Event-engine scheduler: "calendar" or "heap".  Kept for config
  // compatibility; both select the one binary-heap queue, and any other
  // value is rejected.
  std::string engine = "calendar";
  // Message delivery: "batched" (same-instant messages of one broadcast
  // share an engine event) or "per-receiver" (one event per message).
  // Also trajectory-neutral; only event counts differ.  Overrides
  // options.batched_delivery the same way.
  std::string delivery = "batched";
  // In-cell shard count for the conservative-parallel engine; 0 keeps
  // the classic single-queue engine.  Overrides options.shards the same
  // way `engine` overrides options.engine_policy.  Every shard count
  // >= 1 produces the same bytes (the determinism matrix proves it), so
  // this is purely a wall-clock knob within the sharded universe.
  std::uint64_t shards = 0;
  // Node-state layout: "columns" (core::DcsaColumns struct-of-arrays,
  // the scale default) or "adapter" (per-node DcsaNode objects behind
  // AutomatonStore, the object-path reference).  Trajectories are
  // byte-identical between the two (the store-equivalence matrix proves
  // it); only run_stats.arena_bytes differs, which gcs_diff ignores.
  std::string store = "columns";
  // Link-layer traffic model: "off" (ideal link, the legacy path) or a
  // net::parse_traffic spec -- "idle[:bw=...[:queue=...][:mark=...]]",
  // "cbr:bw=...:rate=...[:pkt=...][:queue=...][:mark=...]",
  // "bulk:bw=...:bytes=...:interval=...".  "off" and infinite-bandwidth
  // "idle" are byte-identical (the link-equivalence matrix proves it);
  // finite-bandwidth models queue sync messages behind background load
  // and light up the schema-v6 traffic counters.
  std::string traffic = "off";
  // Protocol variant under test (the ablation axis):
  //   "dcsa"         -- Algorithm 2 as published (the default);
  //   "weighted[:w]" -- every edge at uniform tolerance weight w in (0, 1]
  //                     (default 0.5): matured edges are held to w * b0
  //                     instead of b0;
  //   "noblock"      -- catch-up without the blocking cap;
  //   "nojump"       -- free-running clocks (no catch-up at all).
  // Parsed by core::Variant::parse; every variant runs on either store.
  std::string variant = "dcsa";

  // Samples fire at sample_dt, 2*sample_dt, ...; the engine executes
  // events with t <= horizon, so a sample landing exactly on the horizon
  // fires and a run with horizon == k*sample_dt (exact in binary
  // floating point) reports exactly k samples.  test_experiment.cpp
  // (SampleAtHorizonBoundary...) pins this down so `samples` stays
  // stable across engine refactors.
  double horizon = 100.0;
  double sample_dt = 1.0;
  // Master seed for the run: drives drift walks AND the simulator's
  // delay sampling (options.seed is overridden with this value, so set
  // `seed`, not `options.seed`, to vary a run).
  std::uint64_t seed = 1;
  core::SimOptions options;
};

struct ExperimentResult {
  std::string name;
  double max_global_skew = 0.0;
  double max_local_skew = 0.0;
  double global_skew_bound = 0.0;
  double local_skew_floor = 0.0;  // steady tolerance b0 on matured edges
  std::uint64_t global_violations = 0;
  // B-envelope violations: sample-time live-edge checks plus the
  // simulator's delivery-time conformance checks of the same property.
  // Monotonicity failures are reported separately in run_stats.
  std::uint64_t envelope_violations = 0;
  std::uint64_t samples = 0;
  std::uint64_t events_executed = 0;
  // Engine at() calls that asked for a past time; a correct run has 0
  // (the engine clamps them to now, and this counter keeps the clamp
  // from hiding scheduling bugs).
  std::uint64_t clamped_events = 0;
  core::RunStats run_stats;  // includes delivery_events (batching audit)
  // Scheduler-health counters from the engine (high-water pending, heap
  // ops, shard windows).  These describe the scheduler, not the
  // trajectory: heap_ops differs between delivery modes while every
  // other field above stays bit-identical.
  sim::EngineStats engine_stats;
  // Whole-run digest of the per-sample_dt observation series (mean/peak
  // skews, peak live edges / in-flight messages / engine pending).
  // Always computed -- with or without a recorder attached -- so result
  // bytes do not depend on whether --series was requested.
  obs::SeriesSummary series;
};

// Throws std::invalid_argument as "<where>: <reason>" naming the first
// bad input: one of rho, T, D, B0, horizon and sample_dt that is not
// finite (a NaN slips past every ordered comparison, an Inf past most),
// or a topology, drift, delay, traffic, engine, delivery, store or
// variant that run_experiment's own dispatch rejects.  Builds nothing
// per node.  run_experiment and campaign expansion both call it, so a
// bad key fails before --list echoes it or a cell starts.
void check_config(const ExperimentConfig& config, const std::string& where);

// Runs the experiment.  `recorder`, when non-null, passively observes
// the run: it receives one obs::SeriesSample per sample_dt tick and
// (if it wants_trace()) every structured simulator trace record.  A
// recorder never perturbs the trajectory; results are bit-identical
// with and without one.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                obs::Recorder* recorder = nullptr);

}  // namespace gcs::harness

#endif  // GCS_HARNESS_EXPERIMENT_HPP
