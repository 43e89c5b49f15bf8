// ShardedEngine tests: the K-invariance contract (every observable is
// byte-identical across shard counts, with shards == 1 -- the inline, threadless configuration -- as the
// reference), the globals-before-shards ordering rule, the lookahead
// contract's loud failure, clamp/validation passthrough, and the
// zero-shard one-queue mode.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using gcs::sim::PostKey;
using gcs::sim::ShardedEngine;
using gcs::sim::Time;

// A synthetic ping workload over `n` entities partitioned contiguously
// onto K shards, exactly the way NetworkSimulation partitions nodes.
// Every entity logs its deliveries; every send goes through post() with
// the canonical key; delays are >= the window by construction.  The
// returned observables must not depend on K.
struct PingRun {
  std::vector<std::vector<std::pair<double, int>>> logs;  // per entity
  std::vector<double> global_ticks;
  std::uint64_t events_executed = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_staged = 0;
};

PingRun run_pings(std::size_t n, std::size_t k) {
  const double kWindow = 0.5;
  const double kHorizon = 20.0;
  ShardedEngine eng(k, kWindow);

  std::vector<std::uint32_t> shard_of(n);
  for (std::size_t u = 0; u < n; ++u) {
    shard_of[u] = static_cast<std::uint32_t>(u * k / n);
  }
  PingRun out;
  out.logs.resize(n);
  std::vector<std::uint64_t> idx(n, 0);

  // Each delivery logs and forwards; entity state is only ever touched
  // on its owning shard.
  std::function<void(std::size_t, int)> deliver = [&](std::size_t u, int hop) {
    const double t = eng.shard_now(shard_of[u]);
    out.logs[u].emplace_back(t, hop);
    if (hop >= 24 || t > kHorizon - 2.0) return;
    const std::size_t v = (u + 3) % n;
    const double delay =
        kWindow + 0.25 * static_cast<double>((u + hop) % 3);
    eng.post(shard_of[u], shard_of[v], t + delay,
             PostKey{t, static_cast<std::uint32_t>(u), idx[u]++},
             [&deliver, v, hop] { deliver(v, hop + 1); });
  };

  for (std::size_t u = 0; u < n; ++u) {
    eng.at(shard_of[u], 0.25 + 0.1 * static_cast<double>(u),
           [&deliver, u] { deliver(u, 0); });
  }
  // A barrier-side observer, like the harness sampler: reads cross-shard
  // state (the global event counter) while every worker is parked.
  const gcs::sim::PeriodicId sampler = eng.every_global(1.0, 1.0, [&](Time t) {
    out.global_ticks.push_back(t + 1e-9 * static_cast<double>(
                                              eng.events_executed()));
  });
  eng.run_until(kHorizon);
  // The sampler's next firing is still queued; cancelling it leaves an
  // inert event that pending() must exclude (through globals too).
  eng.cancel_every_global(sampler);

  out.events_executed = eng.events_executed();
  out.shard_windows = eng.stats().shard_windows;
  out.shard_staged = eng.stats().shard_staged_events;
  EXPECT_EQ(eng.clamped_count(), 0u);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_DOUBLE_EQ(eng.now(), kHorizon);
  return out;
}

TEST(ShardedEngine, TrajectoriesAreInvariantAcrossShardCounts) {
  const std::size_t n = 8;
  const PingRun base = run_pings(n, 1);
  ASSERT_GT(base.events_executed, 0u);
  std::uint64_t logged = 0;
  for (const auto& log : base.logs) logged += log.size();
  ASSERT_GT(logged, 0u);
  ASSERT_FALSE(base.global_ticks.empty());

  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{4}}) {
    const PingRun got = run_pings(n, k);
    const std::string label = "k=" + std::to_string(k);
    EXPECT_EQ(base.logs, got.logs) << label;
    EXPECT_EQ(base.global_ticks, got.global_ticks) << label;
    EXPECT_EQ(base.events_executed, got.events_executed) << label;
    EXPECT_EQ(base.shard_windows, got.shard_windows) << label;
    EXPECT_EQ(base.shard_staged, got.shard_staged) << label;
  }
}

TEST(ShardedEngine, GlobalsRunBeforeShardEventsAtTheSameTime) {
  ShardedEngine eng(1, /*window=*/5.0);
  std::vector<std::string> order;
  eng.at(0, 1.0, [&] { order.push_back("shard"); });
  eng.at_global(1.0, [&] { order.push_back("global"); });
  eng.run_until(2.0);
  EXPECT_EQ(order, (std::vector<std::string>{"global", "shard"}));
}

TEST(ShardedEngine, LookaheadViolationFailsLoudly) {
  // A post that lands before the merge barrier means the "delay model"
  // delivered faster than its declared floor; the merge must throw, not
  // silently corrupt the order.
  ShardedEngine eng(2, /*window=*/1.0);
  eng.at(0, 0.5, [&] {
    eng.post(0, 1, 0.6, PostKey{0.5, 0, 0}, [] {});
  });
  EXPECT_THROW(eng.run_until(3.0), std::logic_error);
}

TEST(ShardedEngine, PostAtExactlyTheBarrierIsAccepted) {
  // t == send_t + window lands exactly on the barrier: the tightest
  // schedule the contract allows must work.
  ShardedEngine eng(2, /*window=*/1.0);
  int delivered = 0;
  eng.at(0, 0.5, [&] {
    eng.post(0, 1, 1.5, PostKey{0.5, 0, 0}, [&] { ++delivered; });
  });
  eng.run_until(3.0);
  EXPECT_EQ(delivered, 1);
}

TEST(ShardedEngine, ClampDiagnosticsPassThrough) {
  ShardedEngine eng(2, /*window=*/1.0);
  eng.at(1, 5.0, [&] { eng.at(1, 1.0, [] {}); });
  eng.run_until(10.0);
  EXPECT_EQ(eng.clamped_count(), 1u);
  EXPECT_DOUBLE_EQ(eng.first_clamped_time(), 1.0);
}

TEST(ShardedEngine, ValidatesConstructionAndHorizon) {
  // Zero shards is the one-queue engine: it has no window to validate.
  EXPECT_NO_THROW(ShardedEngine(0, 0.0));
  EXPECT_THROW(ShardedEngine(1, 0.0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, 0.0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, -1.0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  ShardedEngine eng(2, 1.0);
  EXPECT_THROW(eng.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(ShardedEngine, ZeroShardsIsOneQueue) {
  ShardedEngine eng(0, /*window=*/0.0);
  EXPECT_EQ(eng.global_ctx(), 0u);
  // One queue in call order: no globals-first rule, no staging.
  std::vector<std::string> order;
  eng.at(0, 1.0, [&] { order.push_back("at"); });
  eng.post(0, 0, 1.0, PostKey{0.0, 0, 0}, [&] { order.push_back("post"); });
  eng.at_global(1.0, [&] { order.push_back("global"); });
  // No window either: a post may land arbitrarily soon after its send.
  eng.at(0, 2.0, [&] {
    EXPECT_DOUBLE_EQ(eng.shard_now(0), 2.0);
    eng.post(0, 0, eng.shard_now(0) + 1e-3, PostKey{2.0, 0, 1},
             [&] { order.push_back("fast"); });
  });
  EXPECT_THROW(eng.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  eng.run_until(3.0);
  EXPECT_EQ(order, (std::vector<std::string>{"at", "post", "global", "fast"}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
  EXPECT_DOUBLE_EQ(eng.shard_now(0), 3.0);
  EXPECT_EQ(eng.events_executed(), 5u);
  EXPECT_EQ(eng.pending(), 0u);
  // stats() is the one queue's own, heap_ops included.
  const gcs::sim::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.max_pending, 4u);
  EXPECT_EQ(stats.shard_windows, 0u);
  EXPECT_EQ(stats.shard_staged_events, 0u);
  EXPECT_EQ(stats.heap_ops, 10u);  // five pushes, five pops
  EXPECT_EQ(stats.calendar_bucket_scans, 0u);
  EXPECT_EQ(stats.calendar_resizes, 0u);
}

TEST(ShardedEngine, ShardCallbackExceptionsRethrowOnTheCaller) {
  ShardedEngine eng(4, /*window=*/1.0);
  eng.at(2, 0.5, [] { throw std::runtime_error("boom on shard 2"); });
  EXPECT_THROW(eng.run_until(2.0), std::runtime_error);
  // The engine is still coherent enough to tear down (the dtor joins the
  // workers); further scheduling also still works.
  eng.at(1, 5.0, [] {});
  eng.run_until(6.0);
}

TEST(ShardedEngine, StatsReportShardCountersAndZeroPolicyCounters) {
  ShardedEngine eng(2, /*window=*/1.0);
  eng.at(0, 0.25, [&] {
    eng.post(0, 1, 1.5, PostKey{0.25, 0, 0}, [] {});
  });
  eng.run_until(4.0);
  const gcs::sim::EngineStats stats = eng.stats();
  EXPECT_GT(stats.shard_windows, 0u);
  EXPECT_EQ(stats.shard_staged_events, 1u);
  EXPECT_GT(stats.max_pending, 0u);
  // Queue counters vary with K, so sharded stats report them as zero
  // instead of leaking K-variant bytes into results; the calendar
  // counters are always zero.
  EXPECT_EQ(stats.heap_ops, 0u);
  EXPECT_EQ(stats.calendar_bucket_scans, 0u);
  EXPECT_EQ(stats.calendar_resizes, 0u);
}

}  // namespace
