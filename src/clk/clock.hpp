// gcs::clk -- hardware clocks with bounded drift.
//
// The paper's model (Sec. 3): every node has a hardware clock whose rate
// stays within [1 - rho, 1 + rho] of real time.  Nodes never see real
// time; every timeout and edge age in the algorithm layer is measured on
// these clocks.  A RateSchedule is a piecewise-constant rate trajectory,
// either a single constant rate or a seeded, lazily extended random walk
// clamped to the drift bounds.  HardwareClock integrates a schedule and
// answers both directions: value_at(real time) and time_when(clock value)
// (the latter is what the simulator uses to schedule "every delta_h of
// hardware time" broadcasts as real-time events).
//
// A walk holds no random engine.  It keeps its seed and the number of raw
// engine outputs its segments have consumed; extending it re-seeds a
// per-thread engine, skips those outputs, and appends a block of segments
// as long as the walk so far.  The draws are the ones a single sequential
// engine would make, so the trajectory is a pure function of the seed,
// and the per-clock state is a few words plus the segments.
#ifndef GCS_CLK_CLOCK_HPP
#define GCS_CLK_CLOCK_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcs::clk {

class RateSchedule {
 public:
  // Constant-rate clock (rate must be positive; the drift model expects it
  // in [1 - rho, 1 + rho] but this is not enforced here so tests can build
  // degenerate clocks).
  RateSchedule(double rate = 1.0);  // NOLINT(runtime/explicit) -- benches
                                    // emplace_back(double) into vectors.

  // Random-walk drift: the rate starts at `start_rate`, and every
  // `step_dt` seconds of real time takes a Gaussian step with deviation
  // `sigma`, clamped to [1 - rho, 1 + rho].  Deterministic per seed: step
  // k is the k-th draw of a fresh std::normal_distribution from one
  // std::mt19937_64(seed).  Segments are generated lazily as the
  // simulation queries further into the future.
  static RateSchedule random_walk(double rho, double step_dt, double sigma,
                                  std::uint64_t seed, double start_rate = 1.0);

  double rate_at(double t) const;

  bool is_constant() const { return !walk_; }

 private:
  friend class HardwareClock;

  struct Segment {
    double t0;    // real-time start of the segment
    double hw0;   // accumulated clock value at t0
    double rate;  // clock rate during [t0, next.t0)
  };

  // The segment covering real time `t` / clock value `v`, extending the
  // walk as needed.
  const Segment& segment_at_time(double t) const;
  const Segment& segment_at_value(double v) const;
  // The last segment whose `key` is <= x: the cursor's segment or the one
  // after it in O(1), otherwise a binary search.  Moves the cursor there.
  const Segment& locate(double x, double Segment::*key) const;
  // Regenerates the walk's engine position and appends the next block.
  void append_block() const;

  mutable std::vector<Segment> segments_;
  mutable std::size_t cursor_ = 0;
  mutable std::uint64_t draws_ = 0;  // raw engine outputs consumed so far
  std::uint64_t seed_ = 0;
  double lo_ = 1.0;
  double hi_ = 1.0;
  double step_dt_ = 1.0;
  double sigma_ = 0.0;
  bool walk_ = false;
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
