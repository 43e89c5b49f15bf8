#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace gcs::sim {

ShardedEngine::ShardedEngine(std::size_t shards, Duration window)
    : window_(window) {
  if (shards > 0 && (!std::isfinite(window) || window <= 0.0)) {
    throw std::invalid_argument(
        "ShardedEngine: lookahead window must be positive and finite, got " +
        std::to_string(window));
  }
  engines_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>());
  }
  outboxes_.assign(shards + 1, std::vector<std::vector<Post>>(shards));
  inboxes_.resize(shards);
  errors_.assign(shards, nullptr);
  for (std::size_t s = 1; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ShardedEngine::~ShardedEngine() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardedEngine::at(std::size_t shard, Time t, std::function<void()> fn) {
  Engine& engine = engines_.empty() ? globals_ : *engines_[shard];
  engine.at(t, std::move(fn));
}

void ShardedEngine::at(std::size_t shard, Time t, const Message* batch,
                       std::size_t count) {
  (engines_.empty() ? globals_ : *engines_[shard]).at(t, batch, count);
}

void ShardedEngine::post(std::size_t src_ctx, std::size_t dst_shard, Time t,
                         PostKey key, const Message& m) {
  if (engines_.empty()) {
    globals_.at(t, &m, 1);
    return;
  }
  outboxes_[src_ctx][dst_shard].push_back(Post{t, key, m});
}

void ShardedEngine::set_message_handler(
    const std::function<void(const Message*, std::size_t)>& fn) {
  globals_.set_message_handler(fn);
  for (std::unique_ptr<Engine>& engine : engines_) {
    engine->set_message_handler(fn);
  }
}

void ShardedEngine::at_global(Time t, std::function<void()> fn) {
  globals_.at(t, std::move(fn));
}

PeriodicId ShardedEngine::every_global(Time first, Duration period,
                                       std::function<void(Time)> fn) {
  return globals_.every(first, period, std::move(fn));
}

void ShardedEngine::cancel_every_global(PeriodicId id) {
  globals_.cancel_every(id);
}

void ShardedEngine::worker_loop(std::size_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    Phase phase;
    Time target;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      phase = phase_;
      target = target_;
    }
    run_shard(shard, phase, target);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --remaining_;
    }
    cv_done_.notify_one();
  }
}

void ShardedEngine::run_shard(std::size_t shard, Phase phase, Time t) {
  try {
    phase == Phase::kWindow ? engines_[shard]->run_until(t)
                            : merge_inbox(shard, t);
  } catch (...) {
    errors_[shard] = std::current_exception();
  }
}

void ShardedEngine::run_phase(Phase phase, Time t) {
  if (engines_.size() > 1) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      phase_ = phase;
      target_ = t;
      remaining_ = engines_.size() - 1;
      ++generation_;
    }
    cv_work_.notify_all();
  }
  // The coordinator doubles as shard 0's thread; its error must not
  // skip the rendezvous, or the workers would race the barrier work.
  run_shard(0, phase, t);
  if (engines_.size() > 1) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
  }
  for (std::exception_ptr& error : errors_) {
    if (error) {
      std::exception_ptr first = error;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void ShardedEngine::merge_inbox(std::size_t dst, Time barrier) {
  // The canonical order: the key is globally unique, so there are no
  // ties for the gather order (which varies with K) to break.
  const auto before = [](const Post& a, const Post& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.key.send_t != b.key.send_t) return a.key.send_t < b.key.send_t;
    if (a.key.origin != b.key.origin) return a.key.origin < b.key.origin;
    return a.key.index < b.key.index;
  };
  const auto later = [&before](const Cursor& a, const Cursor& b) {
    return before(*b.next, *a.next);
  };
  std::vector<Cursor>& rows = inboxes_[dst].rows;  // a min-heap by next post
  rows.clear();
  for (std::vector<std::vector<Post>>& src : outboxes_) {
    std::vector<Post>& row = src[dst];
    if (row.empty()) continue;
    // Sorted row by row: std::sort over the gathered rows falls back to
    // heapsort on sorted runs ending in a short low tail.
    if (!std::is_sorted(row.begin(), row.end(), before)) {
      std::sort(row.begin(), row.end(), before);
    }
    rows.push_back(Cursor{row.data(), row.data() + row.size()});
  }
  std::make_heap(rows.begin(), rows.end(), later);
  Engine& engine = *engines_[dst];
  while (!rows.empty()) {
    std::pop_heap(rows.begin(), rows.end(), later);
    Cursor& row = rows.back();
    const Post& post = *row.next++;
    if (row.next == row.end) {
      rows.pop_back();
    } else {
      std::push_heap(rows.begin(), rows.end(), later);
    }
    if (post.t < barrier) {
      for (std::vector<std::vector<Post>>& src : outboxes_) src[dst].clear();
      throw std::logic_error(
          "ShardedEngine: lookahead contract violated -- event staged for "
          "shard " +
          std::to_string(dst) + " at t=" + std::to_string(post.t) +
          " merged at barrier " + std::to_string(barrier) +
          " (delay model delivered faster than its declared floor)");
    }
    engine.at(post.t, &post.msg, 1);
    ++inboxes_[dst].merged;
  }
  for (std::vector<std::vector<Post>>& src : outboxes_) src[dst].clear();
}

void ShardedEngine::run_until(Time horizon) {
  if (!std::isfinite(horizon)) {
    throw std::invalid_argument("ShardedEngine::run_until: non-finite horizon");
  }
  if (engines_.empty()) {
    globals_.run_until(horizon);
    return;
  }
  Time now = globals_.now();
  if (horizon < now) horizon = now;
  for (;;) {
    Time b = std::min(now + window_, horizon);
    Time tg;
    // Cut the window at the next global event so globals never lag a
    // full window behind the shards; a global scheduled at or before
    // `now` (a clamped stray) yields a zero-width round, which pops it
    // and guarantees progress on the next lap.
    if (globals_.next_time(&tg)) b = std::min(b, std::max(tg, now));
    run_phase(Phase::kWindow,
              std::nextafter(b, -std::numeric_limits<Time>::infinity()));
    run_phase(Phase::kMerge, b);
    globals_.run_until(b);
    ++windows_;
    max_pending_ = std::max<std::uint64_t>(max_pending_, pending());
    now = b;
    if (b >= horizon) break;
  }
  // run_until is inclusive like Engine's: shard events at exactly the
  // horizon run now, and anything they stage is merged (for a later
  // call) before control returns.
  run_phase(Phase::kWindow, horizon);
  run_phase(Phase::kMerge, horizon);
  max_pending_ = std::max<std::uint64_t>(max_pending_, pending());
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = globals_.events_executed();
  for (const std::unique_ptr<Engine>& engine : engines_) {
    total += engine->events_executed();
  }
  return total;
}

std::size_t ShardedEngine::pending() const {
  std::size_t total = globals_.pending();
  for (const std::unique_ptr<Engine>& engine : engines_) {
    total += engine->pending();
  }
  for (const std::vector<std::vector<Post>>& row : outboxes_) {
    for (const std::vector<Post>& box : row) total += box.size();
  }
  return total;
}

std::uint64_t ShardedEngine::clamped_count() const {
  std::uint64_t total = globals_.clamped_count();
  for (const std::unique_ptr<Engine>& engine : engines_) {
    total += engine->clamped_count();
  }
  return total;
}

const Engine& ShardedEngine::first_clamper() const {
  for (const std::unique_ptr<Engine>& engine : engines_) {
    if (engine->clamped_count() > 0) return *engine;
  }
  return globals_;
}

EngineStats ShardedEngine::stats() const {
  if (engines_.empty()) return globals_.stats();
  EngineStats s;
  s.max_pending = max_pending_;
  s.shard_windows = windows_;
  for (const Inbox& inbox : inboxes_) s.shard_staged_events += inbox.merged;
  return s;
}

}  // namespace gcs::sim
