// gcs::core -- NetworkSimulation: the glue layer.
//
// Owns the event engine, one hardware clock per node, the node store,
// the live edge set (one core::Adjacency: per-node segments of half-edge
// slots holding incarnation, up-time, link FIFO and the columns store's
// estimates), and the link model (traffic pipeline + propagation delay;
// see net/link.hpp).  It pre-schedules every DynamicGraph event as an
// edge-up/edge-down, and runs periodic per-node broadcasts (every
// delta_h of HARDWARE time), background-flow emissions, and message
// deliveries.  A broadcast walks the sender's segment, so a send does
// no lookup; a delivery scans the receiver's segment for the sender
// once, checks the incarnation, and hands that slot to the store.
// Everything observable (skew, clocks, stats) is queryable from
// outside, which is what the harness and the benches build on.
//
// Sharded lookahead under traffic: the conservative barrier window is
// derived from the PROPAGATION floor alone (LinkModel::prop.floor).
// The pipeline only ever adds non-negative wait/tx on top of the
// propagation draw, so every delivery satisfies
//   total delay >= propagation >= floor
// and the ShardedEngine's t >= barrier merge contract holds for any
// traffic model -- queueing can never smuggle an event into the current
// window.  (The total is still clamped above to prop.bound, which keeps
// bound >= total >= floor; test_link.cpp pins both halves.)
//
// With SimOptions::check_conformance set, the simulator audits the run as
// it goes: after every delivery it checks the delivered edge's skew
// against the B envelope (evaluated at the most conservative hardware age
// (1-rho) * real age) and checks that logical clocks never run backwards.
// Violations are counted, never fatal -- bench_ablation deliberately runs
// crippled tolerances to show the counters moving.
#ifndef GCS_CORE_NETWORK_SIM_HPP
#define GCS_CORE_NETWORK_SIM_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "clk/clock.hpp"
#include "core/adjacency.hpp"
#include "core/bfunc.hpp"
#include "core/dcsa_kernel.hpp"
#include "core/node_automaton.hpp"
#include "core/node_store.hpp"
#include "core/params.hpp"
#include "net/dynamic_graph.hpp"
#include "net/link.hpp"
#include "obs/recorder.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

namespace gcs::core {

struct SimOptions {
  bool check_conformance = true;
  std::uint64_t seed = 42;            // drives delay sampling
  double conformance_slack = 1e-6;    // float headroom on envelope checks
  // Accepted for source compatibility and ignored: there is one queue.
  sim::EnginePolicy engine_policy = sim::EnginePolicy::kCalendar;
  // Coalesce messages that a single broadcast (or edge-up exchange)
  // schedules for the same delivery instant into one engine event that
  // fans out to its receivers in send order.  Trajectories are
  // bit-identical to per-receiver delivery (the determinism tests prove
  // it); only the engine event count changes -- by ~average degree on
  // dense graphs under constant delay.
  bool batched_delivery = true;
  // Passive observer for structured trace records (send, deliver, drop,
  // jump, topology delta, conformance check).  Null (the default) makes
  // every emission site a single predicted-not-taken branch; a recorder
  // never schedules events or draws randomness, so attaching one leaves
  // the trajectory bit-identical (the obs tests prove it).  Not owned;
  // must outlive the simulation.
  obs::Recorder* recorder = nullptr;
  // In-cell parallelism: partition the nodes into this many shards of
  // the sim::ShardedEngine (conservative lookahead on the delay floor).
  // 0 (the default) is the classic run on the engine's one-queue mode.
  // Sharded runs are their own deterministic universe -- one RNG stream
  // per node, one delivery event per message, envelope conformance
  // audited at sample times instead of per delivery -- and within it
  // every observable byte is invariant across shard counts (shards=1
  // runs inline and IS the single-threaded reference), but a sharded run
  // is intentionally not byte-comparable to a shards == 0 run.  Requires
  // a delay model with floor > 0; batched_delivery is ignored
  // (cross-shard staging already batches per barrier).
  std::size_t shards = 0;
};

struct RunStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // edge vanished while in flight
  // Engine events scheduled to carry deliveries; messages_sent -
  // delivery_events is the number of coalesced-away events.
  std::uint64_t delivery_events = 0;
  std::uint64_t jumps = 0;
  double total_jump = 0.0;
  std::uint64_t topology_events_applied = 0;
  std::uint64_t conformance_checks = 0;
  std::uint64_t conformance_envelope_failures = 0;
  std::uint64_t conformance_monotonicity_failures = 0;
  // First engine at() call that asked for a past time: the requested time
  // and the event's seq, copied from the engine after each run_until so a
  // nonzero clamp count names the offending schedule entry.  Meaningful
  // only when engine_clamped_count() > 0 (0/0 otherwise).
  double first_clamped_time = 0.0;
  std::uint64_t first_clamped_seq = 0;
  // (T+D)-interval-connectivity audit over the topology schedule (the
  // same window/union semantics as net::audit_interval_connectivity),
  // advanced incrementally to [0, now) after each run_until.  The
  // paper's guarantees assume every full window has a connected snapshot
  // union, so a nonzero disconnected count means the workload broke the
  // standing assumption -- gcs_run --check fails the cell.
  std::uint64_t connectivity_windows_checked = 0;
  std::uint64_t connectivity_windows_disconnected = 0;
  // Memory visibility (schema v5).  arena_bytes is the node store's flat
  // state footprint (0 on the adapter store, whose state hides behind
  // per-node heap objects); peak_rss_kb is the process high-water RSS,
  // filled by the RUNNER after the cell completes (0 in the harness and
  // under --fixed-timing -- it is machine state, not trajectory, and
  // gcs_diff ignores both like wall_ms).
  std::uint64_t arena_bytes = 0;
  std::uint64_t peak_rss_kb = 0;
  // Link-layer traffic pipeline (schema v6).  Background load offered to
  // the per-direction FIFOs, what the bounded queue did to it, and the
  // sync messages' end-to-end latency.  sync_delay_* record wait + tx +
  // propagation for EVERY sync send (traffic off included, where they
  // reduce to the propagation draw -- that identity is part of what the
  // link-equivalence matrix byte-compares); the sum folds in node order
  // in sharded mode so the serialized double is K-invariant.  The other
  // four are zero unless a finite-bandwidth pipeline is configured.
  std::uint64_t traffic_packets = 0;   // background packets offered
  std::uint64_t traffic_dropped = 0;   // dropped at a full bounded queue
  std::uint64_t ecn_marks = 0;         // arrival backlog > mark threshold
  std::uint64_t peak_queue_bytes = 0;  // max backlog seen by any offer
  double sync_delay_sum = 0.0;
  double sync_delay_max = 0.0;
};

class NetworkSimulation {
 public:
  using NodeFactory =
      std::function<std::unique_ptr<NodeAutomaton>(NodeId)>;

  // The node store is the adapter (AutomatonStore) over one virtual
  // NodeAutomaton per node from `factory` when one is given (custom
  // automatons, benches), else core::DcsaColumns flat arenas running
  // `variant` -- the default for scale.  Trajectories are
  // byte-identical to the adapter store running DcsaNode with the same
  // variant (the equivalence matrix enforces it); only
  // RunStats::arena_bytes differs.  The LinkModel is implicitly
  // constructible from a bare DelayModel (an ideal link with no traffic
  // pipeline), so the pre-pipeline call sites read -- and behave --
  // exactly as before.
  NetworkSimulation(const SyncParams& params, net::DynamicGraph graph,
                    net::LinkModel link,
                    std::vector<clk::RateSchedule> schedules,
                    NodeFactory factory, SimOptions options = SimOptions{},
                    Variant variant = Variant{});

  // Columns-store shorthand.
  NetworkSimulation(const SyncParams& params, net::DynamicGraph graph,
                    net::LinkModel link,
                    std::vector<clk::RateSchedule> schedules,
                    SimOptions options = SimOptions{},
                    Variant variant = Variant{})
      : NetworkSimulation(params, std::move(graph), std::move(link),
                          std::move(schedules), NodeFactory{}, options,
                          variant) {}

  NetworkSimulation(const NetworkSimulation&) = delete;
  NetworkSimulation& operator=(const NetworkSimulation&) = delete;

  void run_until(sim::Time t);
  // A global periodic (it may read any node's state): the handle detaches
  // the sampler cleanly (probes that outlive their usefulness stop firing
  // instead of sampling a dead observer).
  sim::PeriodicId schedule_periodic(sim::Time start, sim::Duration period,
                                    std::function<void(sim::Time)> fn);
  void cancel_periodic(sim::PeriodicId id);

  double logical_clock(NodeId u) const;
  double hardware_clock(NodeId u) const;
  // L_u - L_v at the current simulation time.
  double skew(NodeId u, NodeId v) const;
  // Whole-population clock sample at the current simulation time: one
  // store advance() instead of n virtual calls.  Both vectors are
  // resized to size(); logical[i] bit-matches logical_clock(i).
  void sample_clocks(std::vector<double>& hw, std::vector<double>& logical) const;

  // Live edges at the current simulation time, sorted.
  std::vector<net::Edge> current_edges() const;
  // Real-time age of a live edge; negative if the edge is not present.
  double edge_age(const net::Edge& e) const;
  // Instantaneous worst queue backlog (bytes) over all live link
  // directions -- the per-interval queue-depth gauge; 0.0 whenever no
  // finite-bandwidth pipeline is configured.  Safe at barriers/sample
  // times only (like the other whole-network accessors).
  double max_queue_backlog() const;

  // In sharded mode this is the last barrier time; shard-side callbacks
  // never call back into these accessors mid-window (the sampler and
  // topology hooks run at barriers, where the two notions coincide).
  sim::Time now() const { return engine_->now(); }
  std::uint64_t events_executed() const { return engine_->events_executed(); }
  // Events currently queued in the engine -- the "queue depth" a
  // per-interval observation stream wants.
  std::size_t engine_pending() const { return engine_->pending(); }
  // Scheduler-health counters (high-water pending, heap ops); describes
  // the scheduler, not the trajectory.
  sim::EngineStats engine_stats() const { return engine_->stats(); }
  // Audit hook: at() calls that asked for a time in the past.  A correct
  // simulation never does; tests and the harness assert this stays zero.
  std::uint64_t engine_clamped_count() const {
    return engine_->clamped_count();
  }
  const RunStats& stats() const;
  const SyncParams& params() const { return params_; }
  const BFunction& bfunc() const { return bfunc_; }
  std::size_t size() const { return store_->size(); }
  // The node store driving this run (arena_bytes, live_slots, ...).
  const NodeStore& store() const { return *store_; }
  // Per-node automaton access; only the adapter store has such objects,
  // so this throws on the (default) columns store.  Tests and benches
  // that poke protocol internals construct with a NodeFactory.
  NodeAutomaton& node(NodeId u) {
    NodeAutomaton* a = store_->automaton(u);
    if (!a) {
      throw std::logic_error(
          "NetworkSimulation::node: the columns store has no per-node "
          "automatons; construct with a NodeFactory for object access");
    }
    return *a;
  }

 private:
  struct Delivery {
    NodeId from;
    NodeId to;
    double value;
    std::uint64_t incarnation;
  };
  // Order-preserving DeliverySink (defined in the .cpp): it puts stats,
  // traces, and conformance checks at exactly the points the old
  // per-node path emitted them.
  struct Sink;

  // Edges are normalized (u <= v), so one packed key per physical link
  // (the stable input of a flow's phase).
  static std::uint64_t edge_key(const net::Edge& e) {
    return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
  }

  void apply_event(const net::TopologyEvent& ev);
  void add_edge(const net::Edge& e, sim::Time t, bool initial);
  void remove_edge(const net::Edge& e, sim::Time t);
  void schedule_broadcast(NodeId u);
  void broadcast(NodeId u);
  // Sends one message over the half-edge `slot` of from's segment.
  // Classic batched mode stages it; callers must flush_outbox() before
  // returning to the engine (a no-op otherwise).  Every other mode posts
  // it from execution context `ctx` (the sender's shard, or global_ctx()
  // for barrier-side discovery exchanges; at zero shards the post is a
  // plain per-receiver schedule).  Messages carry the edge
  // incarnation, never a slot: segments may relocate before the
  // delivery, which resolves its slot afresh.
  void send(std::size_t ctx, NodeId from, std::uint32_t slot, double value,
            sim::Time t);
  void flush_outbox();
  // Delivers `count` same-instant messages (one, unless coalesced;
  // sharded mode delivers each on its receiver's shard): drop-checks
  // every record up front (store callbacks never touch the edge set,
  // so the checks cannot go stale mid-batch), then feeds the accepted
  // runs to the store as contiguous on_deliveries batches, emitting
  // drops at their original positions -- byte-order-identical to
  // per-record delivery.
  void deliver(const Delivery* batch, std::size_t count);
  // Audits d's edge against the B envelope; `to_logical` is the
  // receiver's logical clock, already read for the monotonicity check.
  void check_edge_conformance(const StoreDelivery& d, double to_logical);
  // Background-flow machinery (TrafficModel::has_flows()): start_flows
  // schedules the first emission for both directions of a fresh edge
  // (constructor or barrier context); flow_emit offers one packet/burst
  // to its direction's FIFO and reschedules itself on the sender's
  // shard until the edge incarnation dies.  Flows draw no randomness --
  // the phase is a pure function of the edge key -- so they cannot
  // shift a single propagation draw.
  void start_flows(const net::Edge& e, std::uint64_t incarnation, sim::Time t);
  void flow_emit(NodeId from, NodeId to, std::uint64_t incarnation);
  // Shared per-send pipeline step: offers sync_bytes to the sender's
  // FIFO `dir`, folds the traffic counters into the two out-params (a
  // counter slot's fields), and returns the total delay (wait + tx + the
  // already-clamped propagation draw `d_prop`), clamped above to the
  // propagation bound.  With no finite-bandwidth pipeline the result
  // is bit-exactly d_prop.
  double sync_link_delay(net::LinkDir& dir, sim::Time t, double d_prop,
                         std::uint64_t& ecn_marks,
                         std::uint64_t& peak_queue_bytes);
  // Execution context of u's events: its shard, or the one classic slot;
  // and the time there.
  std::size_t ctx_of(NodeId u) const { return sharded_ ? shard_of_[u] : 0; }
  sim::Time node_now(NodeId u) const { return engine_->shard_now(ctx_of(u)); }
  // Emits a trace record from context `ctx` on behalf of `node`: straight
  // to the recorder, or (sharded) into ctx's canonical-order buffer.
  void trace(std::size_t ctx, NodeId node, const obs::TraceEvent& ev);
  void flush_sharded_trace();

  SyncParams params_;
  BFunction bfunc_;
  net::LinkModel link_;
  SimOptions options_;
  // Cached from options_.recorder: emission sites test one bool (and
  // trace_ already folds in wants_trace(), so a series-only recorder
  // costs nothing on the message path).
  obs::Recorder* recorder_;
  bool trace_;
  util::Rng rng_;
  // Incremental interval-connectivity cursor over the schedule's
  // (T+D)-windows (owns its own copy of the schedule): each run_until
  // sweeps only the windows newly completed since the previous call, so
  // repeated incremental runs cost one pass total, not one per call.
  net::SnapshotUnionSweep audit_sweep_;

  // The one scheduler: contexts_.size() - 1 shards, so zero -- the
  // one-queue engine -- in a classic run.
  std::unique_ptr<sim::ShardedEngine> engine_;
  // Sharded physics (options_.shards > 0): nodes map contiguously onto
  // shards, and every node draws delays from its own seeded RNG stream
  // so sends on different shards never contend for -- or K-variantly
  // reorder draws from -- a shared generator.
  bool sharded_ = false;
  std::vector<std::uint32_t> shard_of_;
  std::vector<util::Rng> node_rngs_;
  // Per-node running index of posted messages: the K-invariant
  // tiebreaker in the barrier-merge key.
  std::vector<std::uint64_t> node_msg_index_;
  // Per-execution-context state (classic: one; sharded: one per shard,
  // last = globals), each written only by its owner: message counters,
  // folded into stats_ at read time, and deliver's scratch run.  Padded
  // so shards never share a line.
  struct Context {
    alignas(64) std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t messages_dropped = 0;
    std::uint64_t delivery_events = 0;
    std::uint64_t jumps = 0;
    std::uint64_t monotonicity_failures = 0;
    // Traffic pipeline counters.  Sums fold shard-order-independently;
    // the two maxima fold with max, which commutes, so every fold below
    // is K-invariant.
    std::uint64_t traffic_packets = 0;
    std::uint64_t traffic_dropped = 0;
    std::uint64_t ecn_marks = 0;
    std::uint64_t peak_queue_bytes = 0;
    double sync_delay_max = 0.0;
    std::vector<StoreDelivery> scratch;
  };
  std::vector<Context> contexts_ = std::vector<Context>(1);
  // Jump magnitudes accumulate per node and fold in node order, so the
  // float addition order -- and hence the serialized total -- is the
  // same for every shard count.
  std::vector<double> node_jump_;
  // Sync-message total delays accumulate per SENDER and fold in node
  // order, for the same K-invariance reason (a node's sends happen on
  // its own shard or at barriers, never concurrently).
  std::vector<double> node_sync_delay_;
  // Recorder passthrough: on_trace calls must arrive in a K-invariant
  // order (TelemetryRecorder's decimation is order-sensitive), but
  // shards emit concurrently.  Each context buffers its records tagged
  // with a canonical sort key -- (t, globals-first, node, per-node
  // emission seq) -- and run_until merges and feeds them afterwards.
  struct PendingTrace {
    obs::TraceEvent ev;
    std::uint32_t node = 0;
    std::uint64_t seq = 0;
    bool global = false;
  };
  std::vector<std::vector<PendingTrace>> trace_bufs_;
  std::vector<std::uint64_t> node_trace_seq_;
  std::uint64_t global_trace_seq_ = 0;
  std::vector<clk::HardwareClock> clocks_;
  // The live edges, one half-edge slot per direction (see the file
  // comment).  Each slot's link FIFO is written only from its sender's
  // execution context (broadcasts and flow emissions on the sender's
  // shard, discovery exchanges at barriers), so sharded access is
  // race-free by ownership.
  Adjacency adj_;
  // All node state -- DcsaColumns over adj_ by default, or the
  // AutomatonStore adapter when a NodeFactory was supplied.
  std::unique_ptr<NodeStore> store_;
  std::uint64_t next_incarnation_ = 0;
  std::vector<double> next_broadcast_hw_;
  std::vector<double> last_logical_;  // monotonicity conformance
  // Batched mode: messages staged by the current flush scope in send
  // order; flush_outbox sort-groups them by exact delivery instant.
  std::vector<std::pair<sim::Time, Delivery>> outbox_;
  // mutable because the const stats() accessor composes the message
  // counters from contexts_ (and, sharded, node_jump_/node_sync_delay_).
  mutable RunStats stats_;
};

}  // namespace gcs::core

#endif  // GCS_CORE_NETWORK_SIM_HPP
