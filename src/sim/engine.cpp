#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace gcs::sim {

void Engine::push(ScheduledEvent ev) {
  // Reject before any queue or clamp math runs, so a bad timestamp leaves
  // no trace.
  if (!std::isfinite(ev.t)) {
    throw std::invalid_argument("Engine::at: non-finite time " +
                                std::to_string(ev.t));
  }
  if (ev.t < now_) {
    if (clamped_ == 0) {
      first_clamped_time_ = ev.t;
      first_clamped_seq_ = next_seq_;
    }
    ++clamped_;
    ev.t = now_;
  }
  ev.seq = next_seq_++;
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++heap_ops_;
  max_pending_ = std::max<std::uint64_t>(max_pending_, pending());
}

void Engine::at(Time t, std::function<void()> fn) {
  ScheduledEvent ev;
  ev.t = t;
  ev.slot = free_slots_.empty() ? boxed_.size() : free_slots_.back();
  push(ev);  // first: a rejected time must leave the table as it was
  if (ev.slot == boxed_.size()) {
    boxed_.push_back(std::move(fn));
  } else {
    free_slots_.pop_back();
    boxed_[ev.slot] = std::move(fn);
  }
}

void Engine::at(Time t, const Message* batch, std::size_t count) {
  ScheduledEvent ev;
  ev.t = t;
  if (count == 1) {
    ev.kind = ScheduledEvent::Kind::kMessage;
    ev.msg = *batch;
    push(ev);
    return;
  }
  if (chunks_.empty() || chunks_[chunk_].live == 0 ||
      chunks_[chunk_].msgs.size() + count > kChunk) {
    // The first chunk whose batches have all run, else a new one.
    chunk_ = 0;
    while (chunk_ < chunks_.size() && chunks_[chunk_].live > 0) ++chunk_;
    if (chunk_ == chunks_.size()) chunks_.emplace_back();
    chunks_[chunk_].msgs.clear();
  }
  Chunk& chunk = chunks_[chunk_];
  ev.kind = ScheduledEvent::Kind::kBatch;
  ev.batch = {chunk_, static_cast<std::uint32_t>(chunk.msgs.size()),
              static_cast<std::uint32_t>(count)};
  push(ev);  // first: a rejected time must leave the chunks as they were
  chunk.msgs.insert(chunk.msgs.end(), batch, batch + count);
  ++chunk.live;
}

void Engine::queue_firing(PeriodicId id, Time t) {
  ScheduledEvent ev;
  ev.t = t;
  ev.kind = ScheduledEvent::Kind::kPeriodic;
  ev.firing = {id, t};
  push(ev);
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
  queue_firing(id, first);
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
  queue_firing(id, t + period);
}

void Engine::cancel_every(PeriodicId id) {
  if (id >= periodics_.size() || periodics_[id].period == 0.0) return;
  periodics_[id] = Periodic{};
  // A live entry always has exactly one firing queued (or, inside its own
  // callback, about to be); it just became inert, so take it out of the
  // pending accounting now.
  ++inert_pending_;
}

void Engine::run_until(Time horizon) {
  if (std::isnan(horizon)) {
    throw std::invalid_argument("Engine::run_until: NaN horizon");
  }
  while (!heap_.empty() && heap_.front().t <= horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    ++heap_ops_;
    const ScheduledEvent ev = heap_.back();
    heap_.pop_back();
    now_ = std::max(now_, ev.t);
    ++executed_;
    if (ev.kind == ScheduledEvent::Kind::kMessage) {
      on_message_(&ev.msg, 1);
    } else if (ev.kind == ScheduledEvent::Kind::kBatch) {
      Chunk& chunk = chunks_[ev.batch.chunk];
      const Message* first = chunk.msgs.data() + ev.batch.offset;
      running_.assign(first, first + ev.batch.count);
      --chunk.live;
      on_message_(running_.data(), running_.size());
    } else if (ev.kind == ScheduledEvent::Kind::kPeriodic) {
      fire_periodic(ev.firing.id, ev.firing.t);
    } else {
      // Out of the table before the call, which may schedule.
      std::function<void()> fn = std::move(boxed_[ev.slot]);
      boxed_[ev.slot] = nullptr;
      free_slots_.push_back(ev.slot);
      fn();
    }
  }
  now_ = std::max(now_, horizon);
}

}  // namespace gcs::sim
