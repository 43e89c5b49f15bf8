#include "clk/clock.hpp"

#include <algorithm>
#include <cassert>
#include <random>
#include <stdexcept>
#include <utility>

namespace gcs::clk {

namespace {

// Counts the raw outputs a distribution pulls from the engine, so the
// next regeneration of a walk can skip exactly that many.
struct CountingEngine {
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() {
    ++count;
    return gen();
  }
  std::mt19937_64& gen;
  std::uint64_t& count;
};

}  // namespace

RateSchedule::RateSchedule(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("clock rate must be positive");
  segments_.push_back(Segment{0.0, 0.0, rate});
}

RateSchedule RateSchedule::random_walk(double rho, double step_dt, double sigma,
                                       std::uint64_t seed, double start_rate) {
  if (rho < 0.0 || rho >= 1.0) {
    throw std::invalid_argument("random_walk: rho must be in [0, 1)");
  }
  if (step_dt <= 0.0) {
    throw std::invalid_argument("random_walk: step_dt must be positive");
  }
  RateSchedule s(std::clamp(start_rate, 1.0 - rho, 1.0 + rho));
  s.walk_ = true;
  s.lo_ = 1.0 - rho;
  s.hi_ = 1.0 + rho;
  s.step_dt_ = step_dt;
  s.sigma_ = sigma;
  s.seed_ = seed;
  return s;
}

void RateSchedule::append_block() const {
  // One engine per thread, re-positioned for each block: sharded runs
  // extend their nodes' walks on shard threads.
  thread_local std::mt19937_64 gen;
  gen.seed(seed_);
  gen.discard(draws_);
  CountingEngine counted{gen, draws_};
  // Blocks as long as the walk so far keep the total discards linear in
  // the number of segments.
  const std::size_t block = std::max<std::size_t>(4, segments_.size());
  segments_.reserve(segments_.size() + block);
  for (std::size_t i = 0; i < block; ++i) {
    const Segment last = segments_.back();
    // A fresh distribution per step: no cached second variate carries over.
    std::normal_distribution<double> step(0.0, sigma_);
    const double next_rate = std::clamp(last.rate + step(counted), lo_, hi_);
    segments_.push_back(Segment{last.t0 + step_dt_,
                                last.hw0 + last.rate * step_dt_, next_rate});
  }
}

const RateSchedule::Segment& RateSchedule::segment_at_time(double t) const {
  if (walk_) {
    while (segments_.back().t0 + step_dt_ <= t) append_block();
  }
  return locate(t, &Segment::t0);
}

const RateSchedule::Segment& RateSchedule::segment_at_value(double v) const {
  if (walk_) {
    while (segments_.back().hw0 + segments_.back().rate * step_dt_ <= v) {
      append_block();
    }
  }
  return locate(v, &Segment::hw0);
}

const RateSchedule::Segment& RateSchedule::locate(double x,
                                                  double Segment::*key) const {
  const std::size_t n = segments_.size();
  const auto covers = [&](std::size_t i) {
    return segments_[i].*key <= x && (i + 1 == n || x < segments_[i + 1].*key);
  };
  if (covers(cursor_)) return segments_[cursor_];
  if (cursor_ + 1 < n && covers(cursor_ + 1)) return segments_[++cursor_];
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), x,
      [key](double v, const Segment& s) { return v < s.*key; });
  assert(it != segments_.begin());
  cursor_ = static_cast<std::size_t>(it - segments_.begin()) - 1;
  return segments_[cursor_];
}

double RateSchedule::rate_at(double t) const { return segment_at_time(t).rate; }

HardwareClock::HardwareClock(RateSchedule schedule)
    : schedule_(std::move(schedule)) {}

double HardwareClock::value_at(double t) const {
  const auto& s = schedule_.segment_at_time(t);
  return s.hw0 + s.rate * (t - s.t0);
}

double HardwareClock::time_when(double value) const {
  const auto& s = schedule_.segment_at_value(value);
  return s.t0 + (value - s.hw0) / s.rate;
}

}  // namespace gcs::clk
