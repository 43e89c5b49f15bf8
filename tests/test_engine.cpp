// Engine tests.  The binary heap is the only queue, so its ordering
// contract -- (t, seq), FIFO ties, clamped past times -- is checked
// against a sorted-set oracle below.  The suite is instantiated over both
// values of the ignored EnginePolicy constructor argument: either one
// must give the same engine.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using gcs::sim::Engine;
using gcs::sim::EnginePolicy;

class EngineTest : public ::testing::TestWithParam<EnginePolicy> {
 protected:
  Engine make_engine() const { return Engine(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(BothPolicies, EngineTest,
                         ::testing::Values(EnginePolicy::kHeap,
                                           EnginePolicy::kCalendar),
                         [](const auto& info) {
                           return info.param == EnginePolicy::kHeap
                                      ? "Heap"
                                      : "Calendar";
                         });

TEST_P(EngineTest, ExecutesInTimestampOrder) {
  Engine engine = make_engine();
  std::vector<int> order;
  engine.at(3.0, [&] { order.push_back(3); });
  engine.at(1.0, [&] { order.push_back(1); });
  engine.at(2.0, [&] { order.push_back(2); });
  engine.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.events_executed(), 3u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST_P(EngineTest, SameTimestampEventsAreFifo) {
  Engine engine = make_engine();
  std::string trace;
  for (char c : std::string("abcdef")) {
    engine.at(1.0, [&trace, c] { trace.push_back(c); });
  }
  engine.run_until(1.0);
  EXPECT_EQ(trace, "abcdef");
}

TEST_P(EngineTest, EventsScheduledDuringRunAreServiced) {
  Engine engine = make_engine();
  std::vector<int> order;
  engine.at(1.0, [&] {
    order.push_back(1);
    engine.at(2.0, [&] { order.push_back(2); });
    engine.at(1.0, [&] { order.push_back(11); });  // same-time re-entry
  });
  engine.at(3.0, [&] { order.push_back(3); });
  engine.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
}

TEST_P(EngineTest, RunUntilHorizonIsInclusiveAndResumable) {
  Engine engine = make_engine();
  int fired = 0;
  engine.at(1.0, [&] { ++fired; });
  engine.at(2.0, [&] { ++fired; });
  engine.run_until(1.0);
  EXPECT_EQ(fired, 1);
  engine.run_until(2.0);
  EXPECT_EQ(fired, 2);
}

TEST_P(EngineTest, SchedulingInThePastClampsToNowAndCountsIt) {
  Engine engine = make_engine();
  double fired_at = -1.0;
  engine.at(5.0, [&] {
    engine.at(1.0, [&] { fired_at = engine.now(); });
  });
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  // The clamp must not be silent: exactly one at() asked for the past.
  EXPECT_EQ(engine.clamped_count(), 1u);
  // And it must name the offender: the requested (past) time plus the seq
  // the event got.  Seq 0 went to the top-level at(), so the nested
  // offender is seq 1.
  EXPECT_DOUBLE_EQ(engine.first_clamped_time(), 1.0);
  EXPECT_EQ(engine.first_clamped_seq(), 1u);
}

TEST_P(EngineTest, FirstClampRecordKeepsTheEarliestOffender) {
  Engine engine = make_engine();
  engine.at(5.0, [&] {
    engine.at(1.0, [] {});   // first offender: seq 1
    engine.at(0.25, [] {});  // later clamps must not overwrite the record
  });
  engine.run_until(10.0);
  EXPECT_EQ(engine.clamped_count(), 2u);
  EXPECT_DOUBLE_EQ(engine.first_clamped_time(), 1.0);
  EXPECT_EQ(engine.first_clamped_seq(), 1u);
}

TEST_P(EngineTest, WellFormedSchedulesNeverClamp) {
  Engine engine = make_engine();
  engine.every(0.5, 0.25, [](gcs::sim::Time) {});
  engine.at(1.0, [&] { engine.at(engine.now(), [] {}); });  // t == now is fine
  engine.run_until(20.0);
  EXPECT_EQ(engine.clamped_count(), 0u);
}

TEST_P(EngineTest, PeriodicCallbackFiresOnSchedule) {
  Engine engine = make_engine();
  std::vector<double> fire_times;
  engine.every(1.0, 0.5, [&](gcs::sim::Time t) { fire_times.push_back(t); });
  engine.run_until(3.0);
  ASSERT_EQ(fire_times.size(), 5u);  // 1.0, 1.5, 2.0, 2.5, 3.0
  EXPECT_DOUBLE_EQ(fire_times.front(), 1.0);
  EXPECT_DOUBLE_EQ(fire_times.back(), 3.0);
}

TEST_P(EngineTest, CancelledPeriodicStopsFiringOthersContinue) {
  Engine engine = make_engine();
  std::vector<double> kept_times;
  int cancelled_fires = 0;
  const gcs::sim::PeriodicId doomed =
      engine.every(1.0, 1.0, [&](gcs::sim::Time) { ++cancelled_fires; });
  engine.every(1.0, 1.0, [&](gcs::sim::Time t) { kept_times.push_back(t); });

  // Cancel mid-run: the firing already in the queue at t=3 is a weak
  // reference to a destroyed chain, so it stays inert; every tick after
  // the cancellation point must come from the surviving chain only.
  engine.at(2.5, [&] { engine.cancel_every(doomed); });
  engine.run_until(5.0);

  EXPECT_EQ(cancelled_fires, 2);  // t = 1, 2; the t = 3 firing was inert
  ASSERT_EQ(kept_times.size(), 5u);  // 1, 2, 3, 4, 5
  EXPECT_DOUBLE_EQ(kept_times.back(), 5.0);
}

TEST_P(EngineTest, CancelEveryIgnoresUnknownIdsAndIsIdempotent) {
  Engine engine = make_engine();
  int fires = 0;
  const gcs::sim::PeriodicId id =
      engine.every(1.0, 1.0, [&](gcs::sim::Time) { ++fires; });
  engine.cancel_every(id + 1000);  // unknown: a no-op, not an error
  engine.cancel_every(id);
  engine.cancel_every(id);  // double-cancel is fine too
  engine.run_until(4.0);
  EXPECT_EQ(fires, 0);
}

TEST_P(EngineTest, StatsTrackPendingHighWater) {
  Engine engine = make_engine();
  for (int i = 0; i < 32; ++i) {
    engine.at(static_cast<double>(i), [] {});
  }
  engine.run_until(100.0);
  const gcs::sim::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.max_pending, 32u);
  EXPECT_EQ(stats.heap_ops, 64u);  // one push and one pop per event
  // The deleted calendar queue's counters stay in the schema at zero.
  EXPECT_EQ(stats.calendar_resizes, 0u);
  EXPECT_EQ(stats.calendar_bucket_scans, 0u);
}

TEST_P(EngineTest, DeterministicAcrossIdenticalRuns) {
  auto run = [this] {
    Engine engine = make_engine();
    std::vector<std::pair<double, int>> trace;
    for (int i = 0; i < 100; ++i) {
      engine.at(static_cast<double>(i % 7), [&trace, i, &engine] {
        trace.emplace_back(engine.now(), i);
      });
    }
    engine.run_until(100.0);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(EngineTest, PendingAccountingThroughPartialRuns) {
  Engine engine = make_engine();
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    engine.at(static_cast<double>(i % 100) + 0.5, [] {});
  }
  EXPECT_EQ(engine.pending(), static_cast<std::size_t>(n));
  engine.run_until(49.5);  // drains slots 0.5 .. 49.5 = half the events
  EXPECT_EQ(engine.pending(), static_cast<std::size_t>(n) / 2);
  EXPECT_EQ(engine.events_executed(), static_cast<std::uint64_t>(n) / 2);
  engine.run_until(1000.0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.events_executed(), static_cast<std::uint64_t>(n));
}

TEST_P(EngineTest, MillionEventSmoke) {
  Engine engine = make_engine();
  const std::uint64_t n = 1000000;
  std::uint64_t fired = 0;
  // Mixed same-time bursts and spread times, plus each event chaining
  // one follow-up, so the queue sees growth, churn, and drain phases.
  for (std::uint64_t i = 0; i < n / 2; ++i) {
    const double t = static_cast<double>(i % 1009) * 0.25;
    engine.at(t, [&fired, &engine] {
      ++fired;
      engine.at(engine.now() + 0.125, [&fired] { ++fired; });
    });
  }
  engine.run_until(1e9);
  EXPECT_EQ(fired, n);
  EXPECT_EQ(engine.events_executed(), n);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.clamped_count(), 0u);
}

TEST_P(EngineTest, AtRejectsNonFiniteTimes) {
  // A NaN or infinite timestamp must fail loudly: a NaN compares false
  // with everything, so it would slip past the clamp and sit at an
  // arbitrary heap position.
  Engine engine = make_engine();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.at(-inf, [] {}), std::invalid_argument);
  // The rejects left nothing behind and the engine still works.
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.clamped_count(), 0u);
  int fired = 0;
  engine.at(1.0, [&] { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST_P(EngineTest, EveryRejectsNonPositiveOrNonFinitePeriods) {
  // every() with period <= 0 (or any non-finite argument) used to enqueue
  // a chain that reschedules itself at the same instant forever -- a
  // livelock the first run_until() never returns from.  It must throw
  // instead, before anything is queued.
  Engine engine = make_engine();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.every(1.0, 0.0, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(1.0, -0.5, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(1.0, nan, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(nan, 1.0, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(inf, 1.0, [](gcs::sim::Time) {}),
               std::invalid_argument);
  engine.run_until(5.0);  // returns: nothing was queued
  EXPECT_EQ(engine.events_executed(), 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST_P(EngineTest, CancelEveryRemovesInertFiringFromPendingAccounting) {
  // A cancelled chain leaves its already-queued firing behind as an inert
  // event; pending() must not count it (it is not schedulable work), and
  // the inert pop must not disturb the surviving chain's accounting.
  Engine engine = make_engine();
  int doomed_fires = 0;
  int kept_fires = 0;
  const gcs::sim::PeriodicId doomed =
      engine.every(1.0, 1.0, [&](gcs::sim::Time) { ++doomed_fires; });
  engine.every(1.0, 1.0, [&](gcs::sim::Time) { ++kept_fires; });
  engine.run_until(1.5);  // both fired at t=1; both refires queued for t=2
  EXPECT_EQ(engine.pending(), 2u);
  engine.cancel_every(doomed);
  // The doomed chain's t=2 firing is still physically queued but inert.
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_until(2.5);
  EXPECT_EQ(doomed_fires, 1);
  EXPECT_EQ(kept_fires, 2);
  EXPECT_EQ(engine.pending(), 1u);  // the kept chain's t=3 refire
  // The high-water mark saw both chains queued, never the inert ghost.
  EXPECT_EQ(engine.stats().max_pending, 2u);
}

TEST_P(EngineTest, RunUntilRejectsANaNHorizon) {
  // Every comparison with NaN is false, so a NaN horizon would silently
  // run nothing.
  Engine engine = make_engine();
  int fired = 0;
  engine.every(0.5, 0.5, [&](gcs::sim::Time) { ++fired; });
  EXPECT_THROW(engine.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), 0.0);
  engine.run_until(1.0);
  EXPECT_EQ(fired, 2);
}

TEST_P(EngineTest, PeriodicMayRegisterAndCancelPeriodicsWhileFiring) {
  // The periodic table grows (and entries empty) while a callback runs,
  // so the engine must not run the stored callable in place.  The
  // callbacks capture one reference, small enough to live inside
  // std::function's own buffer: a table reallocation then moves -- and
  // a self-cancel overwrites -- the captures of the running call.
  struct State {
    Engine* engine = nullptr;
    std::vector<std::pair<char, gcs::sim::Time>> log;
    gcs::sim::PeriodicId a = 0;
    gcs::sim::PeriodicId b = 0;
  };
  Engine engine = make_engine();
  State s;
  s.engine = &engine;
  s.a = engine.every(1.0, 1.0, [&s](gcs::sim::Time t) {
    s.log.emplace_back('a', t);
    if (t == 1.0) {
      // The table holds a and b at capacity 2: this registration grows it.
      s.engine->every(1.5, 1.0, [&s](gcs::sim::Time tc) {
        s.log.emplace_back('c', tc);
      });
      s.engine->cancel_every(s.b);  // b's t=1 firing is still queued
    }
    if (t == 3.0) {
      s.engine->cancel_every(s.a);
      s.log.emplace_back('x', t);  // captures still usable after the cancel
    }
  });
  s.b = engine.every(1.0, 1.0,
                     [&s](gcs::sim::Time t) { s.log.emplace_back('b', t); });
  engine.run_until(4.0);
  const std::vector<std::pair<char, gcs::sim::Time>> want = {
      {'a', 1.0}, {'c', 1.5}, {'a', 2.0}, {'c', 2.5},
      {'a', 3.0}, {'x', 3.0}, {'c', 3.5}};
  EXPECT_EQ(s.log, want);
  // Only c is live: its t=4.5 firing.  a's t=4 and b's t=1 leftovers
  // popped as inert.
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_until(5.0);
  EXPECT_EQ(s.log.back(), (std::pair<char, gcs::sim::Time>{'c', 4.5}));
  EXPECT_EQ(engine.pending(), 1u);
}

TEST_P(EngineTest, SelfCancellingPeriodicKeepsAccountingConsistent) {
  // Cancelling from inside the chain's own callback hits the transient
  // window where the inert count is bumped before the refire is queued;
  // the clamped subtraction must keep pending() sane through it.
  Engine engine = make_engine();
  int fires = 0;
  gcs::sim::PeriodicId id = 0;
  id = engine.every(1.0, 1.0, [&](gcs::sim::Time) {
    ++fires;
    engine.cancel_every(id);
    EXPECT_EQ(engine.pending(), 0u);  // mid-callback: nothing schedulable
  });
  engine.run_until(5.0);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(engine.pending(), 0u);
  // The chain's firing at t=1 plus its inert refire at t=2 both popped.
  EXPECT_EQ(engine.events_executed(), 2u);
}

// splitmix64: per-event choices in the oracle test are a pure function
// of the event's id, so the engine and the oracle make the same ones.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Times an event with id `id` firing at `now` schedules from inside its
// callback: nothing, a same-time re-entry, a slotted time (ticks of 1/8,
// so bursts of equal times pile up), or a past time that must clamp.
std::vector<double> follow_ups(std::uint64_t id, double now) {
  if (id >= 6000) return {};
  const std::uint64_t h = mix(id);
  switch (h % 4) {
    case 0:
      return {};
    case 1:
      return {now};
    case 2:
      return {now + static_cast<double>((h >> 8) % 8) * 0.125};
    default:
      return {now - 0.5, now + static_cast<double>((h >> 8) % 3) * 0.125};
  }
}

TEST(EngineTest, InterleavedAtAndRunUntilMatchOracle) {
  // Top-level at() calls (slotted, continuous and past times) interleave
  // with run_until() at random horizons, some behind now(); callbacks
  // schedule more.  The oracle is a set ordered by (t, id) with the
  // engine's clamp rule, where ids are handed out in at() order -- the
  // seq contract.
  using Log = std::vector<std::pair<double, std::uint64_t>>;
  Engine engine;
  Log engine_log;
  std::uint64_t engine_ids = 0;
  std::function<void(double)> engine_at = [&](double t) {
    const std::uint64_t id = engine_ids++;
    engine.at(t, [&, id] {
      engine_log.emplace_back(engine.now(), id);
      for (const double f : follow_ups(id, engine.now())) engine_at(f);
    });
  };

  std::set<std::pair<double, std::uint64_t>> queue;
  Log oracle_log;
  double oracle_now = 0.0;
  std::uint64_t oracle_ids = 0;
  std::uint64_t oracle_clamped = 0;
  auto oracle_at = [&](double t) {
    if (t < oracle_now) {
      ++oracle_clamped;
      t = oracle_now;
    }
    queue.emplace(t, oracle_ids++);
  };
  auto oracle_run_until = [&](double horizon) {
    while (!queue.empty() && queue.begin()->first <= horizon) {
      const auto [t, id] = *queue.begin();
      queue.erase(queue.begin());
      oracle_now = std::max(oracle_now, t);
      oracle_log.emplace_back(oracle_now, id);
      for (const double f : follow_ups(id, oracle_now)) oracle_at(f);
    }
    oracle_now = std::max(oracle_now, horizon);
  };

  for (std::uint64_t step = 0; step < 400; ++step) {
    const std::uint64_t h = mix(step + 1000003);
    const double now = engine.now();
    ASSERT_EQ(now, oracle_now) << "step " << step;
    if (h % 3 == 0) {
      const double horizon = now + static_cast<double>((h >> 4) % 17) * 0.25 -
                             (h % 5 == 0 ? 1.0 : 0.0);
      engine.run_until(horizon);
      oracle_run_until(horizon);
    } else {
      for (std::uint64_t k = 0; k < 1 + (h >> 4) % 6; ++k) {
        const std::uint64_t g = mix(h + k);
        double t = now + static_cast<double>(g % 16) * 0.125;  // slotted
        if (g % 7 == 0) t = now + static_cast<double>(g >> 11) * 0x1.0p-53;
        if (g % 11 == 0) t = now - 2.0;  // clamps to now
        engine_at(t);
        oracle_at(t);
      }
    }
    ASSERT_EQ(engine.pending(), queue.size()) << "step " << step;
    double next = 0.0;
    ASSERT_EQ(engine.next_time(&next), !queue.empty());
    if (!queue.empty()) {
      ASSERT_EQ(next, queue.begin()->first);
    }
  }
  engine.run_until(1e9);
  oracle_run_until(1e9);
  EXPECT_EQ(engine_log, oracle_log);
  EXPECT_GT(oracle_log.size(), 2000u);
  EXPECT_EQ(engine.clamped_count(), oracle_clamped);
  EXPECT_GT(oracle_clamped, 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineTest, EarlierAtAfterEmptyRunIsServedFirst) {
  // A run_until() with nothing due must leave the queue intact, and
  // events scheduled afterwards ahead of the waiting one are served
  // before it.
  Engine engine;
  std::vector<int> order;
  engine.at(1000.0, [&] { order.push_back(0); });
  engine.run_until(1.0);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(engine.events_executed(), 0u);
  engine.at(10.0, [&] { order.push_back(1); });
  engine.at(12.0, [&] { order.push_back(2); });
  double next = 0.0;
  ASSERT_TRUE(engine.next_time(&next));
  EXPECT_EQ(next, 10.0);
  engine.run_until(2000.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

}  // namespace
