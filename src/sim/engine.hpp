// gcs::sim -- deterministic discrete-event kernel.
//
// The engine is the bottom layer of the simulation stack: everything above
// it (clocks, message delivery, topology changes, periodic samplers) is
// expressed as timestamped events.  Determinism is load-bearing: two
// runs with the same inputs must execute the same events in the same
// order, so events are ordered by (timestamp, insertion sequence) and ties
// are FIFO.
//
// An event is plain data: a boxed callback's slot, a message or a batch
// of same-instant messages for the engine's one message handler, or a
// periodic firing.  All kinds share one (t, seq) stream, and only a
// boxed callback may allocate.
//
// The queue is one std::push_heap/std::pop_heap binary heap of
// ScheduledEvent: O(log n) per operation, trivially correct.  DESIGN.md
// ("The event engine") records why it replaced a calendar queue: measured
// end to end on real gcs_run cells, the calendar was never faster and
// always cost memory.
#ifndef GCS_SIM_ENGINE_HPP
#define GCS_SIM_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace gcs::sim {

using Time = double;
using Duration = double;

// Accepted for source compatibility and ignored: both values select the
// one binary-heap queue.
enum class EnginePolicy { kCalendar, kHeap };

// Handle returned by every(); pass to cancel_every() to detach the
// periodic callback.
using PeriodicId = std::uint64_t;

// The payload of a message event.
struct Message {
  std::uint32_t from;
  std::uint32_t to;
  double value;
  std::uint64_t incarnation;
};
static_assert(sizeof(Message) == 24 && std::is_trivially_copyable_v<Message>);

// One scheduled event, ordered by (t, seq); seq ties are FIFO.
struct ScheduledEvent {
  enum class Kind : std::uint32_t { kBoxed, kMessage, kBatch, kPeriodic };
  struct Batch {
    std::uint32_t chunk, offset, count;
  };
  struct Firing {
    PeriodicId id;
    double t;  // nominal: a clamped first firing keeps its own time
  };
  double t = 0.0;
  std::uint64_t seq = 0;
  Kind kind = Kind::kBoxed;
  union {
    std::uint64_t slot;  // kBoxed
    Message msg;         // kMessage
    Batch batch;         // kBatch: a range of one of the engine's chunks_
    Firing firing;       // kPeriodic
  };
};
static_assert(sizeof(ScheduledEvent) == 48 &&
              std::is_trivially_copyable_v<ScheduledEvent>);

// Scheduler-health counters, composed on demand by Engine::stats().
// max_pending is the queue's high-water mark and heap_ops counts the
// push_heap and pop_heap calls.  They describe the scheduler, not the
// trajectory, so they belong in result documents, never in
// trajectory-derived artifacts like series CSVs.
struct EngineStats {
  std::uint64_t max_pending = 0;
  std::uint64_t heap_ops = 0;  // push_heap + pop_heap
  // Kept in the result schema from the deleted calendar queue; always 0.
  std::uint64_t calendar_resizes = 0;
  std::uint64_t calendar_bucket_scans = 0;
  // Sharded-engine counters (sim::ShardedEngine): barrier windows run and
  // cross-shard events staged through outboxes.  Always zero on a plain
  // single-queue engine; in sharded mode these are the only scheduler
  // counters that are invariant across shard counts, so heap_ops is
  // reported as zero there.
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_staged_events = 0;
};

class Engine {
 public:
  Engine() = default;
  // The policy is ignored (see EnginePolicy).
  explicit Engine(EnginePolicy /*policy*/) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Schedules `fn` at absolute time `t`.  Scheduling in the past (t <
  // now()) clamps to now() -- the event runs on the next run_until() pass
  // -- and increments clamped_count().  Well-formed callers never
  // schedule in the past; tests and the harness assert the counter stays
  // zero so the clamp cannot silently hide scheduling bugs.
  // Non-finite times throw std::invalid_argument: a NaN compares false
  // with everything, so it would slip past the clamp and sit at an
  // arbitrary heap position, and no non-finite time may enter the queue.
  void at(Time t, std::function<void()> fn);
  // Schedules `count` >= 1 same-instant messages as one event, like
  // at(), which hands them to the message handler together.  A lone
  // message rides in the event; a batch is copied into the engine's
  // chunks.  Neither allocates once the chunks are warm.
  void at(Time t, const Message* batch, std::size_t count);
  // Set before the first message event runs.
  void set_message_handler(
      std::function<void(const Message*, std::size_t)> fn) {
    on_message_ = std::move(fn);
  }

  // Self-rescheduling periodic callback: fires at `first`, `first +
  // period`, ...  Returns a handle for cancel_every(); an uncancelled
  // callback simply stops being serviced once run_until() is never
  // called past its next firing time.
  // Throws std::invalid_argument unless `first` is finite and `period` is
  // finite and positive: a period <= 0 re-fires at the same timestamp
  // forever, livelocking run_until().
  PeriodicId every(Time first, Duration period, std::function<void(Time)> fn);

  // Detaches the periodic callback created by every() in O(1): its table
  // entry is emptied (the callable destroyed) and it never fires again.
  // The already-scheduled next firing stays in the queue as an inert
  // event (events carry only the id), so cancellation cannot perturb the
  // (t, seq) order of anything else.  Inert events are excluded from
  // pending() and the max_pending high-water mark -- they are queue
  // residue, not workload.  Unknown or already-cancelled ids are ignored.
  void cancel_every(PeriodicId id);

  // Executes every pending event with timestamp <= horizon, including
  // events scheduled by callbacks during the run, in (time, seq) order.
  // Advances now() to max(now, horizon).  A NaN horizon throws
  // std::invalid_argument (every comparison with it is false, so it
  // would silently run nothing).
  void run_until(Time horizon);

  // If any event is pending, stores the earliest pending timestamp in
  // *out and returns true.  Counts a cancelled periodic's inert leftover
  // like any event: it still occupies a (t, seq) slot.
  bool next_time(Time* out) const {
    if (heap_.empty()) return false;
    *out = heap_.front().t;
    return true;
  }

  Time now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending() const {
    const std::size_t raw = heap_.size();
    // inert_pending_ can exceed the queued residue only transiently,
    // inside a periodic callback that cancels itself (the entry's next
    // firing is counted as inert before it is physically scheduled).
    return raw > inert_pending_ ? raw - inert_pending_ : 0;
  }
  // Number of at() calls that asked for a time strictly before now().
  std::uint64_t clamped_count() const { return clamped_; }
  // The first offending at() call: the past time it asked for and the seq
  // it was assigned, so a nonzero clamp count points at a concrete event in
  // the schedule.  Meaningful only when clamped_count() > 0.
  Time first_clamped_time() const { return first_clamped_time_; }
  std::uint64_t first_clamped_seq() const { return first_clamped_seq_; }
  // Scheduler-health counters (see EngineStats above).
  EngineStats stats() const {
    EngineStats s;
    s.max_pending = max_pending_;
    s.heap_ops = heap_ops_;
    return s;
  }

 private:
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  // One every() registration; period 0 marks an emptied (cancelled) entry.
  struct Periodic {
    Duration period = 0.0;
    std::function<void(Time)> fn;
  };

  // Queues `ev` (t, kind, payload set) with at()'s checks and clamp.
  void push(ScheduledEvent ev);
  void queue_firing(PeriodicId id, Time t);
  // Runs firing `t` of periodic `id` and queues the next one.
  void fire_periodic(PeriodicId id, Time t);

  std::vector<ScheduledEvent> heap_;  // min-heap via std::push_heap
  // Queued kBoxed callbacks by slot; free_slots_ lists reusable ones.
  std::vector<std::function<void()>> boxed_;
  std::vector<std::uint64_t> free_slots_;
  std::function<void(const Message*, std::size_t)> on_message_;
  // Batches append to chunks_[chunk_].  A chunk whose batches have all
  // run is reused, so memory stays near the batched messages in flight
  // and a straggler pins only its own chunk.  A batch is copied out to
  // running_ before it runs, so its handler may schedule more.
  struct Chunk {
    std::vector<Message> msgs;
    std::uint32_t live = 0;  // queued batches
  };
  static constexpr std::size_t kChunk = 4096;  // messages
  std::vector<Chunk> chunks_;
  std::uint32_t chunk_ = 0;
  std::vector<Message> running_;
  // The callbacks registered by every(), indexed by PeriodicId; queued
  // firings carry only the id, so emptying an entry (cancel_every) makes
  // its future firings no-ops.
  std::vector<Periodic> periodics_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Queued events whose periodic entry has been emptied: physically in
  // the queue (preserving everyone else's (t, seq) order) but guaranteed
  // no-ops.  Incremented by cancel_every, decremented when the inert
  // event pops; pending() subtracts it.
  std::size_t inert_pending_ = 0;
  std::uint64_t max_pending_ = 0;
  std::uint64_t heap_ops_ = 0;
  std::uint64_t clamped_ = 0;
  Time first_clamped_time_ = 0.0;
  std::uint64_t first_clamped_seq_ = 0;
};

}  // namespace gcs::sim

#endif  // GCS_SIM_ENGINE_HPP
