// ShardedEngine tests: the K-invariance contract (every observable is
// byte-identical across shard counts, with shards == 1 -- the inline, threadless configuration -- as the
// reference), the barrier merge's canonical order over unsorted rows,
// the globals-before-shards ordering rule, the lookahead contract's loud
// failure, clamp/validation passthrough, and the zero-shard one-queue
// mode.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace {

using gcs::sim::Message;
using gcs::sim::PostKey;
using gcs::sim::ShardedEngine;
using gcs::sim::Time;

// Adapts a one-message callback to the (batch, count) message handler.
template <class F>
std::function<void(const Message*, std::size_t)> each(F f) {
  return [f](const Message* batch, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) f(batch[i]);
  };
}

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
  // on its owning shard.  A message carries its hop count as the
  // incarnation.
  std::function<void(std::size_t, int)> deliver = [&](std::size_t u, int hop) {
    const double t = eng.shard_now(shard_of[u]);
    out.logs[u].emplace_back(t, hop);
    if (hop >= 24 || t > kHorizon - 2.0) return;
    const std::size_t v = (u + 3) % n;
    const double delay =
        kWindow + 0.25 * static_cast<double>((u + hop) % 3);
    eng.post(shard_of[u], shard_of[v], t + delay,
             PostKey{t, static_cast<std::uint32_t>(u), idx[u]++},
             Message{static_cast<std::uint32_t>(u),
                     static_cast<std::uint32_t>(v), t,
                     static_cast<std::uint64_t>(hop + 1)});
  };
  eng.set_message_handler(each([&deliver](const Message& m) {
    deliver(m.to, static_cast<int>(m.incarnation));
  }));

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

// Rows written out of key order -- falling times in each of three shard
// rows, indices reversed at one instant, cross-row ties on t -- plus a
// globals row whose posts carry the smallest times.  Every destination
// must run its posts in key order (t, send_t, origin, index) at every
// shard count.
TEST(ShardedEngine, MergeRunsUnsortedRowsInKeyOrder) {
  const std::size_t n = 6;
  using Key = std::tuple<Time, Time, std::uint32_t, std::uint64_t>;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{4}}) {
    ShardedEngine eng(k, /*window=*/1.0);
    std::vector<std::uint32_t> shard_of(n);
    for (std::size_t u = 0; u < n; ++u) {
      shard_of[u] = static_cast<std::uint32_t>(u * k / n);
    }
    // A message carries its key: value = send_t, incarnation = index.
    std::vector<std::vector<Key>> ran(n), want(n);
    eng.set_message_handler(each([&](const Message& m) {
      ran[m.to].emplace_back(eng.shard_now(shard_of[m.to]), m.value, m.from,
                             m.incarnation);
    }));
    // Each origin's staging plan, in its (out-of-key) staging order.
    struct Planned {
      std::uint32_t to;
      Time t;
      std::uint64_t index;
    };
    std::vector<Planned> plan;
    for (const std::uint32_t to : {5u, 1u}) {
      const std::uint64_t base = to == 1 ? 4 : 0;
      plan.push_back({to, 2.9, base + 0});
      plan.push_back({to, 2.7, base + 1});
      plan.push_back({to, 2.5, base + 3});
      plan.push_back({to, 2.5, base + 2});
    }
    const auto stage = [&eng, &shard_of](std::size_t ctx, Time send_t,
                                         std::uint32_t from,
                                         const Planned& p) {
      eng.post(ctx, shard_of[p.to], p.t, PostKey{send_t, from, p.index},
               Message{from, p.to, send_t, p.index});
    };
    // Origins 0, 2 and 4 sit on three different shards once k >= 3; all
    // stage in the window [1, 2), merged at barrier 2.
    for (const std::uint32_t u : {0u, 2u, 4u}) {
      const Time send_t = u == 2 ? 1.25 : 1.5;
      for (const Planned& p : plan) {
        want[p.to].emplace_back(p.t, send_t, u, p.index);
      }
      eng.at(shard_of[u], send_t, [&stage, &plan, &shard_of, u, send_t] {
        for (const Planned& p : plan) stage(shard_of[u], send_t, u, p);
      });
    }
    // The globals row runs at barrier 1 and is merged with the window
    // after it, carrying that merge's smallest times.
    const std::vector<Planned> global_plan = {
        {5, 2.125, 1}, {5, 2.0, 0}, {1, 2.125, 1}, {1, 2.0, 0}};
    for (const Planned& p : global_plan) {
      want[p.to].emplace_back(p.t, 1.0, 3, p.index);
    }
    eng.at_global(1.0, [&] {
      for (const Planned& p : global_plan) stage(eng.global_ctx(), 1.0, 3, p);
    });
    eng.run_until(4.0);
    const std::string label = "k=" + std::to_string(k);
    for (const std::uint32_t to : {5u, 1u}) {
      std::sort(want[to].begin(), want[to].end());
      EXPECT_EQ(ran[to], want[to]) << label << " to=" << to;
    }
    EXPECT_EQ(eng.stats().shard_staged_events, 28u) << label;
    EXPECT_EQ(eng.pending(), 0u) << label;
  }
}

// Lookahead violations staged for two destinations are found by two
// concurrent merges at K=4.  The caller must get the lowest-index
// destination's every time, only after every worker has parked, so the
// engine stays usable.
TEST(ShardedEngine, ConcurrentViolationsRethrowTheLowestDestination) {
  for (int rep = 0; rep < 100; ++rep) {
    ShardedEngine eng(4, /*window=*/1.0);
    eng.set_message_handler(each([](const Message&) {}));
    // Shard 3 stages the late post for shard 1, shard 0 the one for 3.
    eng.at(3, 0.5,
           [&] { eng.post(3, 1, 0.625, PostKey{0.5, 3, 0}, Message{}); });
    eng.at(0, 0.5,
           [&] { eng.post(0, 3, 0.75, PostKey{0.5, 0, 0}, Message{}); });
    try {
      eng.run_until(3.0);
      ADD_FAILURE() << "rep " << rep << ": no lookahead violation thrown";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shard 1 at t=0.625000"), std::string::npos)
          << "rep " << rep << ": " << what;
    }
    int ran = 0;
    eng.at(2, 4.0, [&] { ++ran; });
    eng.run_until(5.0);
    EXPECT_EQ(ran, 1) << "rep " << rep;
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
  eng.set_message_handler(each([](const Message&) {}));
  eng.at(0, 0.5, [&] { eng.post(0, 1, 0.6, PostKey{0.5, 0, 0}, Message{}); });
  EXPECT_THROW(eng.run_until(3.0), std::logic_error);
}

TEST(ShardedEngine, PostAtExactlyTheBarrierIsAccepted) {
  // t == send_t + window lands exactly on the barrier: the tightest
  // schedule the contract allows must work.
  ShardedEngine eng(2, /*window=*/1.0);
  int delivered = 0;
  eng.set_message_handler(each([&](const Message&) { ++delivered; }));
  eng.at(0, 0.5, [&] { eng.post(0, 1, 1.5, PostKey{0.5, 0, 0}, Message{}); });
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
  // One queue in call order: no globals-first rule, no staging.  A
  // message's `from` picks its label.
  std::vector<std::string> order;
  eng.set_message_handler(each([&](const Message& m) {
    order.push_back(m.from == 0 ? "post" : "fast");
  }));
  eng.at(0, 1.0, [&] { order.push_back("at"); });
  eng.post(0, 0, 1.0, PostKey{0.0, 0, 0}, Message{0, 0, 0.0, 0});
  eng.at_global(1.0, [&] { order.push_back("global"); });
  // No window either: a post may land arbitrarily soon after its send.
  eng.at(0, 2.0, [&] {
    EXPECT_DOUBLE_EQ(eng.shard_now(0), 2.0);
    eng.post(0, 0, eng.shard_now(0) + 1e-3, PostKey{2.0, 0, 1},
             Message{1, 0, 0.0, 0});
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
  eng.set_message_handler(each([](const Message&) {}));
  eng.at(0, 0.25,
         [&] { eng.post(0, 1, 1.5, PostKey{0.25, 0, 0}, Message{}); });
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
