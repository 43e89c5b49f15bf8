#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace gcs::sim {

Engine::Engine(EnginePolicy policy) : policy_(policy) {}

void Engine::at(Time t, std::function<void()> fn) {
  // Reject before any queue or clamp math runs, so a bad timestamp has
  // the same (absence of) effect under both policies.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("Engine::at: non-finite time " +
                                std::to_string(t));
  }
  if (t < now_) {
    if (clamped_ == 0) {
      first_clamped_time_ = t;
      first_clamped_seq_ = next_seq_;
    }
    ++clamped_;
    t = now_;
  }
  ScheduledEvent ev{t, next_seq_++, std::move(fn)};
  if (policy_ == EnginePolicy::kHeap) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++heap_ops_;
  } else {
    calendar_.push(std::move(ev));
  }
  max_pending_ = std::max<std::uint64_t>(max_pending_, pending());
}

PeriodicId Engine::every(Time first, Duration period,
                         std::function<void(Time)> fn) {
  if (!std::isfinite(first)) {
    throw std::invalid_argument("Engine::every: non-finite first time " +
                                std::to_string(first));
  }
  if (!std::isfinite(period) || period <= 0.0) {
    // A period <= 0 re-fires at a non-advancing timestamp: run_until
    // would pop it forever without progressing.
    throw std::invalid_argument("Engine::every: period must be finite and "
                                "positive, got " +
                                std::to_string(period));
  }
  const PeriodicId id = periodics_.size();
  periodics_.push_back(Periodic{period, std::move(fn)});
  at(first, [this, id, first] { fire_periodic(id, first); });
  return id;
}

void Engine::fire_periodic(PeriodicId id, Time t) {
  const Duration period = periodics_[id].period;
  if (period == 0.0) {
    --inert_pending_;
    return;
  }
  // Run the callable out of the table: it may cancel itself (emptying
  // its entry) or register periodics (growing the table) while it runs.
  std::function<void(Time)> fn = std::move(periodics_[id].fn);
  fn(t);
  if (periodics_[id].period != 0.0) periodics_[id].fn = std::move(fn);
  // Queued even if the callback just cancelled this entry (it then pops
  // as inert), so the seq stream never depends on when a cancel happens.
  at(t + period, [this, id, next = t + period] { fire_periodic(id, next); });
}

void Engine::cancel_every(PeriodicId id) {
  if (id >= periodics_.size() || periodics_[id].period == 0.0) return;
  periodics_[id] = Periodic{};
  // A live entry always has exactly one firing queued (or, inside its own
  // callback, about to be); it just became inert, so take it out of the
  // pending accounting now.
  ++inert_pending_;
}

bool Engine::next_time(Time* out) {
  if (policy_ == EnginePolicy::kHeap) {
    if (heap_.empty()) return false;
    *out = heap_.front().t;
    return true;
  }
  return calendar_.min_time(out);
}

void Engine::run_until(Time horizon) {
  if (std::isnan(horizon)) {
    throw std::invalid_argument("Engine::run_until: NaN horizon");
  }
  if (policy_ == EnginePolicy::kHeap) {
    while (!heap_.empty() && heap_.front().t <= horizon) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      ++heap_ops_;
      ScheduledEvent ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = std::max(now_, ev.t);
      ++executed_;
      ev.fn();
    }
  } else {
    ScheduledEvent ev;
    while (calendar_.pop_if_leq(horizon, &ev)) {
      now_ = std::max(now_, ev.t);
      ++executed_;
      ev.fn();
    }
  }
  now_ = std::max(now_, horizon);
}

}  // namespace gcs::sim
