// gcs::clk -- hardware clocks with bounded drift.
//
// The paper's model (Sec. 3): every node has a hardware clock whose rate
// stays within [1 - rho, 1 + rho] of real time.  Nodes never see real
// time; every timeout and edge age in the algorithm layer is measured on
// these clocks.  A RateSchedule is a piecewise-constant rate trajectory,
// either a single constant rate or a seeded random walk clamped to the
// drift bounds.  HardwareClock integrates a schedule and answers both
// directions: value_at(real time) and time_when(clock value) (the latter
// is what the simulator uses to schedule "every delta_h of hardware time"
// broadcasts as real-time events).
//
// A walk is a pure function of (seed, step): segment k starts at real
// time k * step_dt, and its rate is segment k-1's plus sigma times
// util::normal_at(seed, k), clamped.  Only the accumulated clock value
// needs the segments before k, so a walk keeps just its newest kWindow
// segments in the object.  Queries step the window forward; one older
// than the window replays the walk from segment 0, so every query order
// gets the same bits.  A time_when that would step the window past the
// segment the last value_at read steps a copy instead, so the
// simulator's pattern (a broadcast's time_when delta_h ahead, value_at
// at the current instant) never replays, however large delta_h is.  A
// schedule makes no heap allocation.
#ifndef GCS_CLK_CLOCK_HPP
#define GCS_CLK_CLOCK_HPP

#include <cstdint>

namespace gcs::clk {

class RateSchedule {
 public:
  // Constant-rate clock (rate must be positive; the drift model expects it
  // in [1 - rho, 1 + rho] but this is not enforced here so tests can build
  // degenerate clocks).
  RateSchedule(double rate = 1.0);  // NOLINT(runtime/explicit) -- benches
                                    // emplace_back(double) into vectors.

  // Random-walk drift: the rate starts at `start_rate` clamped to
  // [1 - rho, 1 + rho], and every `step_dt` seconds of real time takes a
  // Gaussian step with deviation `sigma`, clamped to the same bounds.
  static RateSchedule random_walk(double rho, double step_dt, double sigma,
                                  std::uint64_t seed, double start_rate = 1.0);

  double rate_at(double t) const;

  bool is_constant() const { return step_dt_ == 0.0; }

 private:
  friend class HardwareClock;

  static constexpr std::uint64_t kWindow = 4;
  static constexpr std::uint64_t kBeyond = ~std::uint64_t{0};

  struct Segment {
    double hw0;   // accumulated clock value at the start, k * step_dt
    double rate;  // clock rate until segment k + 1 starts
  };

  // The index of the segment covering real time `t` / clock value `v`,
  // left in the window (together with its successor).  The window steps
  // no further than segment `last`: a value beyond it returns kBeyond.
  std::uint64_t index_at_time(double t) const;
  std::uint64_t index_at_value(double v, std::uint64_t last = kBeyond) const;
  template <class Start>
  std::uint64_t locate(double x, Start start,
                       std::uint64_t last = kBeyond) const;
  const Segment& slot(std::uint64_t k) const { return window_[k % kWindow]; }
  void step() const;  // appends segment newest_ + 1

  mutable Segment window_[kWindow] = {};  // segment k lives in slot k % kWindow
  mutable std::uint64_t newest_ = 0;
  std::uint64_t seed_ = 0;
  double rate0_ = 1.0;
  double rho_ = 0.0;
  double step_dt_ = 0.0;  // 0: a constant schedule, segment 0 forever
  double sigma_ = 0.0;
};

// A hardware clock starting at value 0 at real time 0, advancing at the
// schedule's rate.  Rates are strictly positive, so the value is strictly
// increasing and invertible.
class HardwareClock {
 public:
  explicit HardwareClock(RateSchedule schedule);

  // Clock reading at real time t (t >= 0).
  double value_at(double t) const;
  // Inverse: the real time at which the clock reads `value` (value >= 0).
  double time_when(double value) const;
  double rate_at(double t) const { return schedule_.rate_at(t); }

 private:
  RateSchedule schedule_;
};

}  // namespace gcs::clk

#endif  // GCS_CLK_CLOCK_HPP
