// Unit tests for the campaign runner: the --jobs determinism guarantee
// (in-process, on a small sweep; tests/run_jobs_determinism.cmake drives
// the real binary on campaigns/churn.json), CSV quoting, filename
// sanitization of hand-built labels, the disjoint errored/failed
// accounting, and --list naming a non-finite input.
#include "cli/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cli/campaign.hpp"
#include "util/json.hpp"

namespace {

namespace cli = gcs::cli;
namespace fs = std::filesystem;
namespace json = gcs::util::json;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gcs_runner" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

cli::Campaign small_campaign() {
  return cli::build_campaign(
      nullptr, {{"name", "unit"},
                {"n", "6"},
                {"topology", "ring"},
                {"seeds", "1..4"},
                {"horizon", "10"},
                {"sample_dt", "0.5"}});
}

TEST(CsvField, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(cli::csv_field("plain-0.5_x"), "plain-0.5_x");
  EXPECT_EQ(cli::csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(cli::csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(cli::csv_field("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(cli::csv_field(""), "");
}

TEST(Runner, SeriesAndTraceArtifactsAppearOnlyWhenRequested) {
  const fs::path off_dir = fresh_dir("telemetry-off");
  const fs::path on_dir = fresh_dir("telemetry-on");
  const cli::Campaign campaign = small_campaign();

  cli::RunnerOptions options;
  options.quiet = true;
  options.fixed_timing = true;
  std::ostringstream log;

  options.out_dir = off_dir.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);
  options.series = true;
  options.trace = true;
  options.trace_limit = 32;
  options.out_dir = on_dir.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);

  std::size_t cells = 0;
  for (const auto& entry : fs::directory_iterator(on_dir / "cells")) {
    const fs::path p = entry.path();
    if (p.extension() != ".json") continue;
    ++cells;
    const fs::path stem = p.stem();
    const fs::path series = on_dir / "cells" / (stem.string() + ".series.csv");
    const fs::path trace = on_dir / "cells" / (stem.string() + ".trace.jsonl");
    ASSERT_TRUE(fs::exists(series)) << series;
    ASSERT_TRUE(fs::exists(trace)) << trace;
    // One header plus horizon/sample_dt rows.
    const std::string csv = read_file(series);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 21);
    EXPECT_EQ(csv.rfind("t,global_skew,", 0), 0u);
    // Trace is bounded: meta line + at most trace_limit records.
    const std::string jsonl = read_file(trace);
    const auto lines = std::count(jsonl.begin(), jsonl.end(), '\n');
    EXPECT_LE(lines, 33);
    EXPECT_GE(lines, 2);
    const json::Value meta =
        json::parse(jsonl.substr(0, jsonl.find('\n')));
    EXPECT_EQ(meta.at("kind").as_string(), "meta");
    EXPECT_GT(meta.at("events_seen").as_u64(), 0u);

    // Without the flags, neither file exists...
    EXPECT_FALSE(fs::exists(off_dir / "cells" / series.filename()));
    EXPECT_FALSE(fs::exists(off_dir / "cells" / trace.filename()));
    // ...and the cell document itself is byte-identical either way:
    // telemetry observes, it never changes results.
    EXPECT_EQ(read_file(off_dir / "cells" / p.filename()), read_file(p));
  }
  EXPECT_EQ(cells, campaign.cells.size());
}

TEST(Runner, ParallelRunIsByteIdenticalToSerial) {
  const fs::path dir_a = fresh_dir("serial");
  const fs::path dir_b = fresh_dir("parallel");
  const cli::Campaign campaign = small_campaign();

  cli::RunnerOptions options;
  options.quiet = true;
  options.fixed_timing = true;  // timing is the only nondeterministic output
  std::ostringstream log_a;
  std::ostringstream log_b;

  options.jobs = 1;
  options.out_dir = dir_a.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log_a), 0);
  options.jobs = 3;
  options.out_dir = dir_b.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log_b), 0);

  for (const char* artifact : {"campaign.csv", "campaign.jsonl",
                               "summary.json"}) {
    EXPECT_EQ(read_file(dir_a / artifact), read_file(dir_b / artifact))
        << artifact;
  }
  std::size_t cells_compared = 0;
  for (const auto& entry : fs::directory_iterator(dir_a / "cells")) {
    const fs::path other = dir_b / "cells" / entry.path().filename();
    ASSERT_TRUE(fs::exists(other)) << other;
    EXPECT_EQ(read_file(entry.path()), read_file(other))
        << entry.path().filename();
    ++cells_compared;
  }
  EXPECT_EQ(cells_compared, campaign.cells.size());
  // The quiet log carries only the summary line; both runs agree on
  // everything but wall time, which the summary line reports, so compare
  // the cell/failure counters prefix.
  EXPECT_EQ(log_a.str().substr(0, log_a.str().find(" events in")),
            log_b.str().substr(0, log_b.str().find(" events in")));
}

TEST(Runner, StreamedArtifactsAreByteIdenticalToBuffered) {
  // The streaming writer (campaign.csv/jsonl appended per committed
  // cell, series rows flushed straight from the recorder) must produce
  // exactly the bytes the buffered writer produced -- it is a memory
  // optimization, not a format change.
  const fs::path dir_s = fresh_dir("streamed");
  const fs::path dir_b = fresh_dir("buffered");
  const cli::Campaign campaign = small_campaign();

  cli::RunnerOptions options;
  options.quiet = true;
  options.fixed_timing = true;
  options.series = true;
  options.trace = true;
  options.trace_limit = 64;
  options.jobs = 2;
  std::ostringstream log;

  options.stream_artifacts = true;
  options.out_dir = dir_s.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);
  options.stream_artifacts = false;
  options.out_dir = dir_b.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);

  for (const char* artifact : {"campaign.csv", "campaign.jsonl",
                               "summary.json"}) {
    EXPECT_EQ(read_file(dir_s / artifact), read_file(dir_b / artifact))
        << artifact;
  }
  std::size_t files_compared = 0;
  for (const auto& entry : fs::directory_iterator(dir_s / "cells")) {
    const fs::path other = dir_b / "cells" / entry.path().filename();
    ASSERT_TRUE(fs::exists(other)) << other;
    EXPECT_EQ(read_file(entry.path()), read_file(other))
        << entry.path().filename();
    ++files_compared;
  }
  // json + series.csv + trace.jsonl per cell, in both trees.
  EXPECT_EQ(files_compared, campaign.cells.size() * 3);
}

TEST(Runner, StreamedSeriesOfErroredCellIsRemoved) {
  // An errored cell must not leave a partial (header-only) series file
  // behind when the series stream was already open.
  const fs::path dir = fresh_dir("errored-series");
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"name", "err"}, {"n", "1,6"}, {"topology", "ring"},
                {"horizon", "5"}});
  cli::RunnerOptions options;
  options.quiet = true;
  options.series = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  EXPECT_EQ(cli::run_campaign(campaign, options, log), 1);

  std::size_t series_files = 0;
  std::size_t json_files = 0;
  for (const auto& entry : fs::directory_iterator(dir / "cells")) {
    const std::string name = entry.path().filename().string();
    if (name.find(".series.csv") != std::string::npos) ++series_files;
    if (entry.path().extension() == ".json") ++json_files;
  }
  EXPECT_EQ(json_files, 1u);    // only the clean cell wrote a document
  EXPECT_EQ(series_files, 1u);  // and only it kept a series file
}

TEST(Runner, PeakRssIsFilledUnlessTimingIsFixed) {
  const fs::path live = fresh_dir("rss-live");
  const fs::path pinned = fresh_dir("rss-pinned");
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(1);

  cli::RunnerOptions options;
  options.quiet = true;
  std::ostringstream log;
  options.out_dir = live.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);
  options.fixed_timing = true;
  options.out_dir = pinned.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);

  auto rss_of = [](const fs::path& tree) {
    for (const auto& entry : fs::directory_iterator(tree / "cells")) {
      if (entry.path().extension() == ".json") {
        const json::Value doc = json::parse(read_file(entry.path()));
        return doc.at("result").at("run_stats").at("peak_rss_kb").as_u64();
      }
    }
    return std::uint64_t{0};
  };
  // Any real process has megabytes resident; --fixed-timing pins the
  // counter to 0 so trees stay byte-comparable.
  EXPECT_GT(rss_of(live), 1000u);
  EXPECT_EQ(rss_of(pinned), 0u);
}

TEST(Runner, ErroredCellsAreDisjointFromFailedAndLogTimingOnly) {
  const fs::path dir = fresh_dir("errored");
  // n=1 makes run_experiment throw; n=6 runs clean.
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"name", "err"}, {"n", "1,6"}, {"topology", "ring"},
                {"horizon", "5"}});
  ASSERT_EQ(campaign.cells.size(), 2u);

  cli::RunnerOptions options;
  options.out_dir = dir.string();
  std::ostringstream log;
  cli::CampaignOutcome outcome;
  // An errored cell fails the run even without --check...
  EXPECT_EQ(cli::run_campaign(campaign, options, log, &outcome), 1);
  // ...but the counters stay disjoint: it is errored, not "failed".
  EXPECT_EQ(outcome.errored_cells, 1u);
  EXPECT_EQ(outcome.failed_cells, 0u);
  ASSERT_EQ(outcome.cells.size(), 2u);
  EXPECT_TRUE(outcome.cells[0].errored);
  EXPECT_FALSE(outcome.cells[1].errored);

  // The ERROR progress line prints timing only -- no "0 events, max skew
  // 0" from a default-constructed result.
  const std::string text = log.str();
  const std::size_t error_line = text.find(" ERROR (");
  ASSERT_NE(error_line, std::string::npos) << text;
  const std::size_t eol = text.find('\n', error_line);
  const std::string line = text.substr(error_line, eol - error_line);
  EXPECT_EQ(line.find("events"), std::string::npos) << line;
  EXPECT_EQ(line.find("skew"), std::string::npos) << line;
  EXPECT_NE(line.find("ms)"), std::string::npos) << line;

  // summary.json reports the disjoint counters.
  const json::Value summary = json::parse(read_file(dir / "summary.json"));
  EXPECT_EQ(summary.at("errored_cells").as_u64(), 1u);
  EXPECT_EQ(summary.at("failed_cells").as_u64(), 0u);
  EXPECT_EQ(summary.at("cells").as_u64(), 2u);

  // The errored cell leaves no artifacts: one CSV row, one JSONL line,
  // one cell file.
  const std::string csv = read_file(dir / "campaign.csv");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);  // header + 1 row
}

TEST(Runner, CheckFailsACellThatNeverSampled) {
  // A sharded run audits the envelope only at samples, so a cell whose
  // sample_dt exceeds its horizon would otherwise pass --check having
  // audited nothing.
  const fs::path dir = fresh_dir("no-samples");
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"name", "nosample"}, {"n", "8"}, {"horizon", "5"},
                {"sample_dt", "100"}, {"shards", "2"},
                {"delay", "constant:0.5"}});
  cli::RunnerOptions options;
  options.quiet = true;
  options.check = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  cli::CampaignOutcome outcome;
  EXPECT_EQ(cli::run_campaign(campaign, options, log, &outcome), 1);
  EXPECT_EQ(outcome.failed_cells, 1u);
  EXPECT_EQ(outcome.errored_cells, 0u);
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].result.samples, 0u);
  ASSERT_EQ(outcome.cells[0].failures.size(), 1u);
  const std::string& failure = outcome.cells[0].failures[0];
  EXPECT_NE(failure.find("sample_dt"), std::string::npos) << failure;
  EXPECT_NE(failure.find("horizon"), std::string::npos) << failure;
}

TEST(Runner, HandBuiltLabelsAreSanitizedAndCsvQuoted) {
  const fs::path dir = fresh_dir("weird-labels");
  // run_campaign accepts hand-built Campaigns whose labels and name never
  // went through build_campaign's sanitizer.
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(2);
  campaign.name = "evil,name";
  campaign.cells[0].label = "a/b,c";    // '/' would escape cells/
  campaign.cells[1].label = "a-b-c";    // collides with cell 0 post-sanitize
  cli::RunnerOptions options;
  options.quiet = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);

  // Filenames: sanitized, collision-resolved, nothing escaped cells/.
  EXPECT_TRUE(fs::exists(dir / "cells" / "a-b-c.json"));
  EXPECT_TRUE(fs::exists(dir / "cells" / "a-b-c-1.json"));

  // CSV: the raw label and campaign name survive inside quotes; the row
  // still has the header's column count when parsed with quote-awareness.
  const std::string csv = read_file(dir / "campaign.csv");
  EXPECT_NE(csv.find("\"evil,name\",\"a/b,c\","), std::string::npos) << csv;

  // The cell documents keep the raw (unsanitized) label, which is what
  // gcs_diff matches on.
  const json::Value doc =
      json::parse(read_file(dir / "cells" / "a-b-c.json"));
  EXPECT_EQ(doc.at("cell").as_string(), "a/b,c");
  EXPECT_EQ(doc.at("campaign").as_string(), "evil,name");
}

TEST(Runner, DuplicateLabelsAreRejectedBeforeRunning) {
  // Two cells with one label would write a tree whose documents share an
  // identity -- gcs_diff could never tell them apart -- so the runner
  // refuses up front, before touching the output directory.
  const fs::path dir = fresh_dir("dup-labels");
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(2);
  campaign.cells[1].label = campaign.cells[0].label;
  cli::RunnerOptions options;
  options.quiet = true;
  options.out_dir = (dir / "tree").string();
  std::ostringstream log;
  EXPECT_THROW(cli::run_campaign(campaign, options, log),
               std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir / "tree"));
}

TEST(Runner, JobsAboveCellCountIsSafe) {
  const fs::path dir = fresh_dir("overprovisioned");
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(2);
  cli::RunnerOptions options;
  options.quiet = true;
  options.jobs = 64;  // clamped to the cell count
  options.out_dir = dir.string();
  std::ostringstream log;
  EXPECT_EQ(cli::run_campaign(campaign, options, log), 0);
  EXPECT_TRUE(fs::exists(dir / "campaign.csv"));
}

TEST(Runner, ListNamesANonFiniteInputBeforeEchoing) {
  // `gcs_run --list --B0=nan` used to fail inside json::dump with an
  // anonymous "cannot serialize non-finite number", and --list echoed an
  // unknown name like `--engine=foo` and exited 0.  Expansion now rejects
  // each of the six finite-only keys and each string key by name, so
  // --list never gets to echo the config.
  const auto expect_rejected = [](const char* key, const char* value,
                                  const std::string& reason) {
    try {
      const cli::Campaign campaign =
          cli::build_campaign(nullptr, {{"n", "4"}, {key, value}});
      cli::RunnerOptions options;
      options.list_only = true;
      std::ostringstream log;
      cli::run_campaign(campaign, options, log);
      ADD_FAILURE() << "--" << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("campaign: cell 000: " + reason),
                std::string::npos)
          << e.what();
    }
  };
  for (const char* key : {"rho", "T", "D", "B0", "horizon", "sample_dt"}) {
    for (const char* value : {"nan", "inf"}) {
      expect_rejected(key, value, std::string(key) + " must be finite");
    }
  }
  for (const char* key : {"engine", "store", "delivery", "drift", "variant",
                          "topology"}) {
    expect_rejected(key, "foo", std::string("unknown ") + key + " 'foo'");
  }
  expect_rejected("delay", "foo", "delay 'foo': unknown delay kind");
  expect_rejected("traffic", "foo", "traffic 'foo': unknown kind");
}

}  // namespace
