// Hardware clocks: a random walk keeps only its newest few segments and
// replays from segment 0 when a query falls behind them, so these tests
// hold it, bit for bit, to a walk built the plain way -- one eager loop
// of the step function over util::normal_at -- under every query order
// the window can see, the simulator's included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "clk/clock.hpp"
#include "util/rng.hpp"

namespace {

using gcs::clk::HardwareClock;
using gcs::clk::RateSchedule;

static_assert(sizeof(RateSchedule) <= 128,
              "a clock schedule must not embed a random engine");

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

struct RefSegment {
  double t0;
  double hw0;
  double rate;
};

// The walk as one eager loop of the step function builds it.
std::vector<RefSegment> reference_walk(double rho, double step_dt, double sigma,
                                       std::uint64_t seed, double start_rate,
                                       std::size_t count) {
  std::vector<RefSegment> segs{
      {0.0, 0.0, std::clamp(start_rate, 1.0 - rho, 1.0 + rho)}};
  for (std::uint64_t k = 1; k < count; ++k) {
    const RefSegment last = segs.back();
    const double rate =
        std::clamp(last.rate + sigma * gcs::util::normal_at(seed, k),
                   1.0 - rho, 1.0 + rho);
    segs.push_back({static_cast<double>(k) * step_dt,
                    last.hw0 + last.rate * step_dt, rate});
  }
  return segs;
}

const RefSegment& ref_segment(const std::vector<RefSegment>& segs, double x,
                              double RefSegment::*key) {
  auto it = std::upper_bound(
      segs.begin(), segs.end(), x,
      [key](double v, const RefSegment& s) { return v < s.*key; });
  return *std::prev(it);
}

enum class Kind { kValueAt, kTimeWhen, kRateAt };

struct Query {
  Kind kind;
  double x;
};

// Every segment boundary and midpoint, in both directions, for segments
// [0, count - 1): the reference walk covers all of them.
std::vector<Query> all_queries(const std::vector<RefSegment>& segs) {
  std::vector<Query> qs;
  for (std::size_t k = 0; k + 1 < segs.size(); ++k) {
    const RefSegment& s = segs[k];
    const RefSegment& next = segs[k + 1];
    const double t_mid = s.t0 + 0.5 * (next.t0 - s.t0);
    const double v_mid = s.hw0 + 0.5 * (next.hw0 - s.hw0);
    qs.push_back({Kind::kValueAt, s.t0});
    qs.push_back({Kind::kValueAt, t_mid});
    qs.push_back({Kind::kRateAt, s.t0});
    qs.push_back({Kind::kRateAt, t_mid});
    qs.push_back({Kind::kTimeWhen, s.hw0});
    qs.push_back({Kind::kTimeWhen, v_mid});
  }
  return qs;
}

void expect_matches_reference(const std::vector<RefSegment>& segs,
                              const HardwareClock& clock,
                              const std::vector<Query>& qs, const char* order) {
  for (const Query& q : qs) {
    double got = 0.0;
    double want = 0.0;
    switch (q.kind) {
      case Kind::kValueAt: {
        const RefSegment& s = ref_segment(segs, q.x, &RefSegment::t0);
        want = s.hw0 + s.rate * (q.x - s.t0);
        got = clock.value_at(q.x);
        break;
      }
      case Kind::kTimeWhen: {
        const RefSegment& s = ref_segment(segs, q.x, &RefSegment::hw0);
        want = s.t0 + (q.x - s.hw0) / s.rate;
        got = clock.time_when(q.x);
        break;
      }
      case Kind::kRateAt:
        want = ref_segment(segs, q.x, &RefSegment::t0).rate;
        got = clock.rate_at(q.x);
        break;
    }
    ASSERT_EQ(bits(want), bits(got))
        << order << " query kind " << static_cast<int>(q.kind) << " at "
        << q.x;
  }
}

TEST(Clock, RegeneratedWalkMatchesSequentialEngine) {
  constexpr double kRho = 0.02;
  constexpr std::size_t kSegments = 10001;
  constexpr std::size_t kReplayed = 1001;
  const struct {
    std::uint64_t seed;
    double step_dt;
    double sigma;
    double start_rate;
  } walks[] = {
      {1, 1.0, kRho / 4.0, 1.0},
      {99 * 7919 + 3, 1.0, kRho / 4.0, 1.0},
      // A wide walk that rides the clamps, from a clamped start.
      {0xDEADBEEFULL, 0.37, kRho, 1.5},
      {~0ULL, 2.5, kRho / 16.0, 0.99},
  };
  for (const auto& w : walks) {
    SCOPED_TRACE(w.seed);
    const std::vector<RefSegment> segs = reference_walk(
        kRho, w.step_dt, w.sigma, w.seed, w.start_rate, kSegments);
    const RateSchedule schedule = RateSchedule::random_walk(
        kRho, w.step_dt, w.sigma, w.seed, w.start_rate);

    std::vector<Query> qs = all_queries(segs);
    expect_matches_reference(segs, HardwareClock(schedule), qs, "monotone");

    // Nearly every query below replays the walk from segment 0, so these
    // orders cover the first kReplayed segments only.
    qs.resize(6 * (kReplayed - 1));
    std::reverse(qs.begin(), qs.end());
    expect_matches_reference(segs, HardwareClock(schedule), qs, "backwards");

    std::mt19937 shuffle_gen(static_cast<std::uint32_t>(w.seed));
    std::shuffle(qs.begin(), qs.end(), shuffle_gen);
    expect_matches_reference(segs, HardwareClock(schedule), qs, "shuffled");
  }
}

TEST(Clock, CopyTakenMidWalkContinuesTheSameWalk) {
  constexpr double kRho = 0.05;
  const std::vector<RefSegment> segs =
      reference_walk(kRho, 1.0, kRho / 4.0, 42, 1.0, 2001);
  const HardwareClock original(
      RateSchedule::random_walk(kRho, 1.0, kRho / 4.0, 42));
  // Extend the walk partway (well past the window), then copy: the
  // monotone queries from 0 replay both from segment 0.
  original.value_at(37.5);
  const HardwareClock copy = original;
  const std::vector<Query> qs = all_queries(segs);
  expect_matches_reference(segs, copy, qs, "copy");
  expect_matches_reference(segs, original, qs, "original");
}

// The simulator's pattern: each broadcast asks time_when ahead,
// deliveries read value_at at the current instant.  Most queries stay
// within the window, every 50th runs 40 units ahead, and a second clock
// runs every query 4 * step_dt ahead (a broadcast period of delta_h = 4).
// A far-ahead time_when steps a copy, so the lagging value_at that
// follows still finds its segment in the window.
TEST(Clock, FarAheadTimeWhenWithLaggingValueAt) {
  constexpr double kRho = 0.02;
  const std::vector<RefSegment> segs =
      reference_walk(kRho, 1.0, kRho / 4.0, 7, 1.0, 400);
  const HardwareClock clock(
      RateSchedule::random_walk(kRho, 1.0, kRho / 4.0, 7));
  const HardwareClock period4(
      RateSchedule::random_walk(kRho, 1.0, kRho / 4.0, 7));
  for (int i = 0; i < 3000; ++i) {
    const double now = 0.1 * i;
    const double ahead_value =
        clock.value_at(now) + (i % 50 == 0 ? 40.0 : 0.5 + 0.01 * (i % 7));
    std::vector<Query> qs = {{Kind::kTimeWhen, ahead_value},
                             {Kind::kValueAt, now},
                             {Kind::kRateAt, now},
                             {Kind::kValueAt, now + 0.03}};
    expect_matches_reference(segs, clock, qs, "simulator");
    qs[0].x = period4.value_at(now) + 4.0;
    expect_matches_reference(segs, period4, qs, "4 * step_dt ahead");
  }
}

TEST(Clock, TwoClocksInDifferentOrdersAgreeBitForBit) {
  const RateSchedule schedule =
      RateSchedule::random_walk(0.05, 0.5, 0.02, 0xC0FFEEULL);
  const HardwareClock in_order(schedule);
  const HardwareClock shuffled(schedule);
  std::vector<double> xs;
  for (int i = 0; i <= 2000; ++i) xs.push_back(0.173 * i);
  struct Reading {
    std::uint64_t value, time, rate;
  };
  const auto read = [](const HardwareClock& c, double x) {
    return Reading{bits(c.value_at(x)), bits(c.time_when(x)),
                   bits(c.rate_at(x))};
  };
  std::vector<Reading> want;
  for (double x : xs) want.push_back(read(in_order, x));
  std::vector<std::size_t> order(xs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937 shuffle_gen(5);
  std::shuffle(order.begin(), order.end(), shuffle_gen);
  for (std::size_t i : order) {
    shuffled.time_when(xs[i] + 3.0);  // run ahead before each reading
    const Reading got = read(shuffled, xs[i]);
    EXPECT_EQ(want[i].value, got.value) << xs[i];
    EXPECT_EQ(want[i].time, got.time) << xs[i];
    EXPECT_EQ(want[i].rate, got.rate) << xs[i];
  }
}

TEST(Clock, ValueAtAndTimeWhenInvert) {
  constexpr double kRho = 0.05;
  for (std::uint64_t seed : {3ULL, 17ULL, 1234567ULL}) {
    const HardwareClock clock(
        RateSchedule::random_walk(kRho, 0.5, kRho / 2.0, seed));
    for (int i = 0; i <= 4000; ++i) {
      const double t = 0.137 * i;
      const double v = clock.value_at(t);
      EXPECT_NEAR(clock.time_when(v), t, 1e-12 * std::max(1.0, t));
      EXPECT_NEAR(clock.value_at(clock.time_when(t)), t,
                  1e-12 * std::max(1.0, t));
    }
  }
  const HardwareClock constant(RateSchedule(1.02));
  EXPECT_DOUBLE_EQ(constant.value_at(10.0), 10.2);
  EXPECT_DOUBLE_EQ(constant.time_when(10.2), 10.0);
}

TEST(Clock, ValueIsStrictlyIncreasing) {
  const HardwareClock clock(RateSchedule::random_walk(0.1, 0.25, 0.05, 8));
  double prev = clock.value_at(0.0);
  EXPECT_EQ(prev, 0.0);
  for (int i = 1; i <= 4000; ++i) {
    const double v = clock.value_at(0.1 * i);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Clock, RatesStayWithinDriftBounds) {
  constexpr double kRho = 0.03;
  // sigma far above rho so the walk spends most steps on a clamp.
  const RateSchedule schedule =
      RateSchedule::random_walk(kRho, 1.0, 4.0 * kRho, 5, /*start_rate=*/2.0);
  EXPECT_FALSE(schedule.is_constant());
  EXPECT_EQ(schedule.rate_at(0.0), 1.0 + kRho);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const double r = schedule.rate_at(i + 0.5);
    EXPECT_GE(r, 1.0 - kRho);
    EXPECT_LE(r, 1.0 + kRho);
    hit_lo = hit_lo || r == 1.0 - kRho;
    hit_hi = hit_hi || r == 1.0 + kRho;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Clock, ConstantScheduleNeverExtends) {
  const RateSchedule schedule(0.75);
  EXPECT_TRUE(schedule.is_constant());
  EXPECT_EQ(schedule.rate_at(1e9), 0.75);
  const HardwareClock clock(schedule);
  EXPECT_EQ(clock.value_at(100.0), 75.0);
  EXPECT_EQ(clock.time_when(75.0), 100.0);
}

TEST(Clock, RejectsBadParameters) {
  EXPECT_THROW(RateSchedule(0.0), std::invalid_argument);
  EXPECT_THROW(RateSchedule(-1.0), std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(1.0, 1.0, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(-0.1, 1.0, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(0.1, 0.0, 0.1, 1),
               std::invalid_argument);
}

}  // namespace
