// gcs::sim -- sharded conservative-parallel DES on the delay floor.
//
// The paper's synchronization model guarantees every message is delayed
// by at least a floor D.  That floor is exactly the lookahead a
// conservative parallel simulator needs: during a time window of width
// D, nothing a shard sends can be received, so K shards may drain their
// own queues concurrently without ever observing an event out of order.
//
// ShardedEngine composes K independent sim::Engine instances (one per
// shard) plus one "globals" engine for cross-cutting work (topology deltas,
// periodic samplers) that must see every shard quiescent.  A run is a
// sequence of barrier-window rounds:
//
//   1. the coordinator picks the next barrier
//          b = min(now + window, horizon, next global event time);
//   2. every shard drains its events with t < b in parallel (strictly
//      less: the barrier time itself belongs to the next round);
//   3. barrier.  Every shard merges the events staged for it into its
//      own queue in a canonical order (below), all shards in parallel;
//   4. the globals engine runs inclusive to b on the coordinator --
//      at equal times, globals run BEFORE shard events;
//   5. repeat until b == horizon, then drain shard events at exactly
//      the horizon (run_until is inclusive, matching Engine).
//
// Determinism / K-invariance.  Engine orders events by (t, seq), so the
// trajectory is fixed by the ORDER events enter each queue.  Two rules
// make that order independent of the shard count:
//
//   * every cross-entity event -- even one whose destination happens to
//     live on the producing shard -- goes through post(), which stages
//     it in a per-context outbox.  At the barrier, each destination
//     queues its staged events in (t, key.send_t, key.origin,
//     key.index) order; the key is globally unique (origin x running
//     index), so that is a total order with no tie left to arrival
//     order.  Rows are sorted one by one (only when out of order, which
//     a constant delay never is) and k-way merged.
//   * shard-local follow-ups (an entity rescheduling itself) use at(),
//     which only ever interleaves same-time events of DIFFERENT
//     entities; those touch disjoint state and stage their sends
//     through post(), so their relative execution order is
//     unobservable.
//
// Windows alternate with barriers in a K-invariant sequence (the
// barrier times depend only on the window width, the horizon, and the
// globals schedule), so every queue sees the same (t, seq)-relevant
// insertion order whatever K is -- sharded trajectories are
// byte-identical across shard counts, and shards=1 (which runs inline,
// no worker threads) IS the single-threaded reference.
//
// Zero shards is the classic one-queue engine: everything -- at(),
// post(), globals -- goes straight into the globals engine in call
// order, with no staging, no windows and no lookahead contract, and
// run_until/stats forward to it.  That is the same (t, seq) schedule a
// bare sim::Engine would run, so callers drive one type at every shard
// count.
//
// The lookahead contract: a post staged during a window must satisfy
// t >= send_t + window >= the merge barrier.  merge enforces it with a
// std::logic_error so a delay model lying about its floor fails loudly
// instead of silently corrupting the order.
//
// Threading: shard 0 runs on the coordinator thread, shards 1..K-1 on
// dedicated workers parked between the two parallel phases of a round:
// the window, and the merge, in which each shard owns the outbox column
// outboxes_[*][own].  Everything else (globals, counters) happens on
// the coordinator with all workers parked, and the barrier mutex
// orders those accesses, so the engine is clean under ThreadSanitizer
// by construction.
#ifndef GCS_SIM_SHARDED_ENGINE_HPP
#define GCS_SIM_SHARDED_ENGINE_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"

namespace gcs::sim {

// Canonical identity of a staged message event: who produced it,
// when, and its running index among that producer's posts.  Globally
// unique, and independent of how entities are partitioned into shards
// -- which is what makes the barrier merge order a total order.
struct PostKey {
  Time send_t = 0.0;
  std::uint32_t origin = 0;
  std::uint64_t index = 0;
};

class ShardedEngine {
 public:
  // `window` is the conservative lookahead (the delay floor); must be
  // positive and finite when shards >= 1.  shards == 1 runs everything
  // inline on the calling thread; shards == 0 is the one-queue engine
  // (see the file comment) and ignores `window`.
  ShardedEngine(std::size_t shards, Duration window);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // The execution-context id of the globals engine, for post()'s
  // src_ctx: contexts 0..K-1 are the K shards, K is the coordinator
  // running globals (0, the only context, at zero shards).
  std::size_t global_ctx() const { return engines_.size(); }

  // Schedules a shard-local event.  Callable from the owning shard's
  // execution context during a window, or from the coordinator while
  // every shard is parked (construction, barriers, between runs).
  void at(std::size_t shard, Time t, std::function<void()> fn);
  // Schedules a message event on `shard` unstaged (see Engine::at): a
  // node's self-message, or any batch at zero shards.  Messages between
  // entities go through post() at every shard count.
  void at(std::size_t shard, Time t, const Message* batch,
          std::size_t count);

  // Stages message `m` for `dst_shard`, to be merged at the next barrier
  // under the canonical (t, key) order.  `src_ctx` is the CALLING
  // context (owning shard or global_ctx()); each context writes only
  // its own outbox row, so staging is lock-free.  The event time must
  // respect the lookahead contract (t >= barrier at merge time) or the
  // merge throws std::logic_error.  Zero shards queue `m` at once.
  void post(std::size_t src_ctx, std::size_t dst_shard, Time t, PostKey key,
            const Message& m);
  // Runs every message event, on its shard's thread.
  void set_message_handler(
      const std::function<void(const Message*, std::size_t)>& fn);

  // Globals: events that may touch any shard's entities.  They execute
  // at barriers with every worker parked.  Coordinator-only.
  void at_global(Time t, std::function<void()> fn);
  PeriodicId every_global(Time first, Duration period,
                          std::function<void(Time)> fn);
  void cancel_every_global(PeriodicId id);

  // Runs every event with t <= horizon in barrier-window rounds.
  // Rethrows (on the calling thread) what a shard callback or merge
  // threw, the lowest-index shard's first.
  void run_until(Time horizon);

  // Global virtual time: the last barrier (== horizon after run_until
  // returns).  Shard clocks sit just below the next barrier mid-window;
  // shard callbacks must use shard_now() of their OWN shard.
  Time now() const { return globals_.now(); }
  Time shard_now(std::size_t shard) const {
    return engines_.empty() ? globals_.now() : engines_[shard]->now();
  }

  std::uint64_t events_executed() const;
  std::size_t pending() const;  // queued everywhere + staged in outboxes
  std::uint64_t clamped_count() const;
  // First clamp across contexts (shards in index order, then globals);
  // meaningful only when clamped_count() > 0, and the seq is local to
  // the context that clamped -- diagnostic, like Engine's.
  Time first_clamped_time() const {
    return first_clamper().first_clamped_time();
  }
  std::uint64_t first_clamped_seq() const {
    return first_clamper().first_clamped_seq();
  }

  // max_pending is sampled at barriers (sum over queues + outboxes);
  // heap_ops is reported as zero because its value depends on the shard
  // count, and result documents must not (see EngineStats).
  // shard_windows / shard_staged_events are the sharded scheduler's own
  // K-invariant health counters.  At zero shards this is the one queue's
  // own stats, heap_ops included.
  EngineStats stats() const;

 private:
  struct Post {
    Time t = 0.0;
    PostKey key;
    Message msg;
  };
  // The k-way merge's cursor over one source row.
  struct Cursor {
    const Post* next;
    const Post* end;
  };
  // One shard's merge scratch and count, on its own cache line.
  struct alignas(64) Inbox {
    std::vector<Cursor> rows;
    std::uint64_t merged = 0;
  };
  enum class Phase { kWindow, kMerge };

  const Engine& first_clamper() const;
  // Runs `phase` to `t` on every shard in parallel, then rethrows the
  // lowest-index shard's error.
  void run_phase(Phase phase, Time t);
  void run_shard(std::size_t shard, Phase phase, Time t);
  void merge_inbox(std::size_t dst, Time barrier);
  void worker_loop(std::size_t shard);

  Duration window_;
  std::vector<std::unique_ptr<Engine>> engines_;
  Engine globals_;
  // outboxes_[src_ctx][dst_shard]; row global_ctx() belongs to the
  // coordinator.
  std::vector<std::vector<std::vector<Post>>> outboxes_;
  std::vector<Inbox> inboxes_;  // one per shard
  std::uint64_t windows_ = 0;
  std::uint64_t max_pending_ = 0;

  // Worker pool (shards 1..K-1; empty when K == 1).  Workers park on
  // cv_work_ between phases; a bumped generation_ releases them into
  // phase_ toward target_, and the coordinator waits on cv_done_ until
  // remaining_ hits zero.  The mutex hand-off is the happens-before edge
  // that publishes each phase's shard state to the coordinator and back.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  Phase phase_ = Phase::kWindow;
  Time target_ = 0.0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace gcs::sim

#endif  // GCS_SIM_SHARDED_ENGINE_HPP
