// gcs_run -- the CLI experiment runner.
//
//   gcs_run --campaign campaigns/smoke.json --check
//   gcs_run --n=8,16 --topology=ring --drift=two-camp --seeds=1..5
//   gcs_run --campaign campaigns/churn.json --horizon=120 --list
//
// Campaign files and --key=value flags feed the same expansion (see
// src/cli/campaign.hpp); flags overlay the file.  Exit codes: 0 success,
// 1 check failures (bound violations, clamps, schema drift), 2 bad usage
// or malformed campaign.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "cli/campaign.hpp"
#include "cli/runner.hpp"
#include "util/json.hpp"

namespace {

constexpr const char kUsage[] = R"(gcs_run -- declarative experiment campaigns for the GCS simulator

usage: gcs_run [--campaign FILE] [--key=value ...] [options]

options:
  --campaign FILE   campaign JSON ({name, defaults, sweep}); flags overlay it
  --out DIR         results directory (default: results/<campaign-name>)
  --jobs N          run cells on N worker threads (cells are independent;
                    every output file is byte-identical to --jobs 1)
  --check           audit every cell (bound violations, engine clamps,
                    result-schema round-trip) and exit 1 on any failure
  --fixed-timing    write wall_ms/events_per_sec as 0 in all artifacts so
                    two runs of one campaign are byte-comparable
  --series          write cells/<label>.series.csv per cell: one row per
                    sample_dt tick (skews, B-envelope ratio, live edges,
                    in-flight messages, engine pending)
  --trace[=N]       write cells/<label>.trace.jsonl per cell: structured
                    simulator events (send/deliver/drop/jump/topology/
                    conformance), bounded to N kept records (default 4096)
                    by deterministic decimation; meta line first
  --list            print the expanded cells, per-axis cardinalities, and
                    the total cell count, and run nothing
  --quiet           suppress per-cell progress lines
  --help            this text

sweepable keys (comma lists and integer ranges a..b become axes):
  n, topology (path|ring|star|complete), drift (spread|walk|two-camp),
  delay (uniform[:lo[:hi]]|constant[:x]), engine (calendar|heap: both
  select the one event queue; kept for old campaign files),
  delivery (batched|per-receiver), shards (0 = classic single-queue
  engine; >= 1 runs the sharded conservative-parallel engine, which
  needs a delay with a positive floor, e.g. constant:0.5 or
  uniform:0.25), store (columns = struct-of-arrays node state, the
  scale default; adapter = per-node objects, the byte-identical
  reference path), rho, T, D, delta_h, B0,
  horizon, sample_dt, seed (alias: seeds)
  variant: dcsa (default) | weighted[:w] (uniform tolerance weight w,
  default 0.5) | noblock (no blocking cap) | nojump (free-running
  clocks); every variant runs on either store (docs/envelope.md
  documents the ablation axis)
  traffic: off (default; stochastic delays only), or a link-pipeline
  spec idle|cbr|bulk with :knob=value knobs -- idle[:bw=B:queue=Q:
  mark=M:msg=S] models bandwidth/queueing for sync messages only,
  cbr:bw=B:rate=R[:pkt=P:...] adds constant-rate background packets
  per link direction, bulk:bw=B:bytes=N:interval=I[:...] adds periodic
  greedy transfers (docs/traffic.md documents every knob; traffic-off
  trajectories are byte-identical to the seed's)
  scenario: kind[:knob=value...] with kind churn|switching-star|mobility|
  gauss-markov|group|trace (docs/scenarios.md documents every knob;
  trace wants path=<contacts.csv|.json>, mobility-style kinds accept
  connect_window=W to enforce W-interval connectivity without a backbone)

examples:
  gcs_run --campaign campaigns/smoke.json --check
  gcs_run --campaign campaigns/churn.json --jobs 4 --check
  gcs_run --campaign campaigns/churn.json --check --series --trace=2048
  gcs_run --n=8,16,32 --topology=ring,complete --seeds=1..5
  gcs_run --campaign campaigns/churn.json --check --shards=4 --delay=constant:0.5
  gcs_run --n=10 --scenario=gauss-markov:alpha=0.85:backbone=false:connect_window=3.5 --check
  gcs_run --campaign campaigns/contention.json --check --series
  gcs_run --n=12 --traffic=off,cbr:bw=4000:rate=40 --delay=constant:0.5 --check
  gcs_run --campaign campaigns/churn.json --horizon=120 --out /tmp/churn
)";

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_file;
  gcs::cli::RunnerOptions options;
  std::map<std::string, std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--check") {
      options.check = true;
      continue;
    }
    if (arg == "--list") {
      options.list_only = true;
      continue;
    }
    if (arg == "--quiet") {
      options.quiet = true;
      continue;
    }
    if (arg == "--fixed-timing") {
      options.fixed_timing = true;
      continue;
    }
    if (arg == "--series") {
      options.series = true;
      continue;
    }
    if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      options.trace = true;
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        const std::string value = arg.substr(eq + 1);
        char* end = nullptr;
        const long long limit = std::strtoll(value.c_str(), &end, 10);
        if (value.empty() || end != value.c_str() + value.size() ||
            limit < 1) {
          std::cerr << "gcs_run: --trace wants a positive integer, got '"
                    << value << "'\n";
          return 2;
        }
        options.trace_limit = static_cast<std::uint64_t>(limit);
      }
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "gcs_run: unexpected argument '" << arg << "'\n" << kUsage;
      return 2;
    }
    // --key=value, or --key value for the runner's own valued options.
    std::string key = arg.substr(2);
    std::string value;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if ((key == "campaign" || key == "out" || key == "jobs") &&
               i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "gcs_run: option --" << key << " needs a value\n";
      return 2;
    }
    if (key == "campaign") {
      campaign_file = value;
    } else if (key == "out") {
      options.out_dir = value;
    } else if (key == "jobs") {
      char* end = nullptr;
      const long jobs = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() || jobs < 1 ||
          jobs > 1024) {
        std::cerr << "gcs_run: --jobs wants an integer in [1, 1024], got '"
                  << value << "'\n";
        return 2;
      }
      options.jobs = static_cast<int>(jobs);
    } else {
      overrides[key] = value;
    }
  }

  try {
    gcs::util::json::Value doc;
    bool have_doc = false;
    if (!campaign_file.empty()) {
      std::ifstream in(campaign_file, std::ios::binary);
      if (!in) {
        std::cerr << "gcs_run: cannot open campaign file '" << campaign_file
                  << "'\n";
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      doc = gcs::util::json::parse(buf.str());
      have_doc = true;
    } else if (overrides.empty()) {
      std::cerr << "gcs_run: nothing to run (no --campaign, no flags)\n\n"
                << kUsage;
      return 2;
    }

    const gcs::cli::Campaign campaign =
        gcs::cli::build_campaign(have_doc ? &doc : nullptr, overrides);
    if (campaign.cells.empty()) {
      std::cerr << "gcs_run: campaign expanded to zero cells\n";
      return 2;
    }
    return gcs::cli::run_campaign(campaign, options, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "gcs_run: " << e.what() << "\n";
    return 2;
  }
}
