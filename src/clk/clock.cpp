#include "clk/clock.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace gcs::clk {

RateSchedule::RateSchedule(double rate) : rate0_(rate) {
  if (!(rate > 0.0)) throw std::invalid_argument("clock rate must be positive");
  window_[0] = Segment{0.0, rate};
}

RateSchedule RateSchedule::random_walk(double rho, double step_dt, double sigma,
                                       std::uint64_t seed, double start_rate) {
  if (!(rho >= 0.0 && rho < 1.0)) {
    throw std::invalid_argument("random_walk: rho must be in [0, 1)");
  }
  if (!(step_dt > 0.0)) {
    throw std::invalid_argument("random_walk: step_dt must be positive");
  }
  RateSchedule s(std::clamp(start_rate, 1.0 - rho, 1.0 + rho));
  s.seed_ = seed;
  s.rho_ = rho;
  s.step_dt_ = step_dt;
  s.sigma_ = sigma;
  return s;
}

void RateSchedule::step() const {
  const Segment& last = slot(newest_);
  const Segment next{
      last.hw0 + last.rate * step_dt_,
      std::clamp(last.rate + sigma_ * util::normal_at(seed_, newest_ + 1),
                 1.0 - rho_, 1.0 + rho_)};
  window_[++newest_ % kWindow] = next;
}

template <class Start>
std::uint64_t RateSchedule::locate(double x, Start start,
                                   std::uint64_t last) const {
  if (is_constant()) return 0;
  // Back through the window to the last segment starting at or before x;
  // x older than the window's oldest segment replays from segment 0.
  std::uint64_t k = newest_;
  while (k > 0 && start(k) > x) {
    if (k + kWindow == newest_ + 1) {
      newest_ = k = 0;
      window_[0] = Segment{0.0, rate0_};
      break;
    }
    --k;
  }
  // Forward until the next segment starts after x.
  for (;; ++k) {
    if (k == newest_) {
      if (k == last) return kBeyond;
      step();
    }
    if (start(k + 1) > x) return k;
  }
}

std::uint64_t RateSchedule::index_at_time(double t) const {
  return locate(t, [this](std::uint64_t k) {
    return static_cast<double>(k) * step_dt_;
  });
}

std::uint64_t RateSchedule::index_at_value(double v,
                                           std::uint64_t last) const {
  return locate(v, [this](std::uint64_t k) { return slot(k).hw0; }, last);
}

double RateSchedule::rate_at(double t) const {
  return slot(index_at_time(t)).rate;
}

HardwareClock::HardwareClock(RateSchedule schedule)
    : schedule_(std::move(schedule)) {}

double HardwareClock::value_at(double t) const {
  const std::uint64_t k = schedule_.index_at_time(t);
  const auto& s = schedule_.slot(k);
  return s.hw0 + s.rate * (t - static_cast<double>(k) * schedule_.step_dt_);
}

double HardwareClock::time_when(double value) const {
  // The shared ring steps at most kWindow - 2 segments past its newest,
  // which keeps the segment the last value_at read (one before the
  // newest) in the ring.  A value further ahead is located on a copy.
  std::optional<RateSchedule> ahead;
  std::uint64_t k = schedule_.index_at_value(
      value, schedule_.newest_ + RateSchedule::kWindow - 2);
  if (k == RateSchedule::kBeyond) {
    ahead = schedule_;
    k = ahead->index_at_value(value);
  }
  const RateSchedule& schedule = ahead ? *ahead : schedule_;
  const auto& s = schedule.slot(k);
  return static_cast<double>(k) * schedule.step_dt_ + (value - s.hw0) / s.rate;
}

}  // namespace gcs::clk
