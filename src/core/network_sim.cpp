#include "core/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dcsa_columns.hpp"
#include "util/rng.hpp"

namespace gcs::core {

// The DeliverySink: stats, traces, and conformance checks land at
// exactly the points the old per-node delivery path emitted them, so
// the store refactor cannot move a byte in any artifact.
struct NetworkSimulation::Sink : DeliverySink {
  explicit Sink(NetworkSimulation* s) : sim(s) {}
  NetworkSimulation* sim;

  void before(const StoreDelivery& d) override {
    const std::size_t ctx = sim->ctx_of(d.to);
    ++sim->contexts_[ctx].messages_delivered;
    if (sim->trace_) {
      sim->trace(ctx, d.to, {obs::TraceEvent::Kind::kDeliver, d.now, d.from,
                             d.to, d.value, 0.0, false});
    }
  }

  void after(const StoreDelivery& d, double jump) override {
    const std::size_t ctx = sim->ctx_of(d.to);
    Context& c = sim->contexts_[ctx];
    if (jump > 0.0) {
      ++c.jumps;
      if (sim->sharded_) {
        sim->node_jump_[d.to] += jump;
      } else {
        sim->stats_.total_jump += jump;
      }
      if (sim->trace_) {
        sim->trace(ctx, d.to, {obs::TraceEvent::Kind::kJump, d.now, d.to,
                               d.from, jump, 0.0, false});
      }
    }
    if (sim->options_.check_conformance) {
      // Envelope conformance compares BOTH endpoints' clocks, which a
      // shard may not read mid-window; sharded runs audit the envelope
      // through the harness sampler at barriers instead, so the per-
      // delivery check is skipped for EVERY shard count (keeping the
      // counters K-invariant).  Monotonicity is target-local and stays on.
      const double logical = sim->store_->logical_clock(d.to, d.hw_now);
      if (!sim->sharded_) sim->check_edge_conformance(d, logical);
      if (logical < sim->last_logical_[d.to] - sim->options_.conformance_slack) {
        ++c.monotonicity_failures;
      }
      sim->last_logical_[d.to] = logical;
    }
  }
};

NetworkSimulation::NetworkSimulation(const SyncParams& params,
                                     net::DynamicGraph graph,
                                     net::LinkModel link,
                                     std::vector<clk::RateSchedule> schedules,
                                     NodeFactory factory, SimOptions options,
                                     Variant variant)
    : params_(params),
      bfunc_(params),
      link_(std::move(link)),
      options_(options),
      recorder_(options.recorder),
      trace_(options.recorder != nullptr && options.recorder->wants_trace()),
      audit_sweep_(graph.initial_edges(), graph.events(),
                   params.T + params.D),
      sharded_(options.shards > 0),
      adj_(graph.n()) {
  const std::size_t n = graph.n();
  if (schedules.size() != n) {
    throw std::invalid_argument(
        "NetworkSimulation: one RateSchedule per node required");
  }
  if (!(std::isfinite(params_.delta_h) && params_.delta_h > 0.0)) {
    // Each broadcast reschedules itself delta_h of hardware time later:
    // 0 would livelock at one instant, a negative or non-finite period
    // would schedule at a non-finite time.
    std::ostringstream msg;
    msg << "NetworkSimulation: delta_h must be finite and > 0, got "
        << params_.delta_h;
    throw std::invalid_argument(msg.str());
  }
  clocks_.reserve(n);
  for (auto& s : schedules) clocks_.emplace_back(std::move(s));
  if (factory) {
    std::vector<std::unique_ptr<NodeAutomaton>> nodes;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto node = factory(static_cast<NodeId>(i));
      if (!node) {
        throw std::invalid_argument("NetworkSimulation: null automaton");
      }
      nodes.push_back(std::move(node));
    }
    store_ = std::make_unique<AutomatonStore>(std::move(nodes));
  } else {
    store_ = std::make_unique<DcsaColumns>(params_, adj_, variant);
  }
  for (std::size_t i = 0; i < n; ++i) {
    store_->start(NodeContext{static_cast<NodeId>(i),
                              clocks_[i].value_at(0.0), 0.0});
  }
  last_logical_.assign(n, 0.0);
  node_msg_index_.assign(n, 0);

  if (sharded_) {
    if (options_.shards > 256) {
      throw std::invalid_argument(
          "NetworkSimulation: shards capped at 256 (one thread per shard)");
    }
    if (!(link_.prop.floor > 0.0)) {
      throw std::invalid_argument(
          "NetworkSimulation: sharded mode needs a delay model with a "
          "positive floor (the conservative lookahead window); use a "
          "constant delay or a uniform one with lo > 0");
    }
    if (link_.prop.floor > link_.prop.bound) {
      throw std::invalid_argument(
          "NetworkSimulation: delay floor exceeds its bound");
    }
    const std::size_t k = std::min<std::size_t>(options_.shards, n);
    shard_of_.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
      // Contiguous blocks, a function of (u, k, n) only -- never of the
      // run -- so the partition is reproducible from the config alone.
      shard_of_[u] = static_cast<std::uint32_t>(u * k / n);
    }
    contexts_.assign(k + 1, Context{});
    node_jump_.assign(n, 0.0);
    node_sync_delay_.assign(n, 0.0);
    if (trace_) {
      trace_bufs_.resize(k + 1);
      node_trace_seq_.assign(n, 0);
    }
  }
  // The lookahead window is the PROPAGATION floor even with a traffic
  // pipeline configured: queueing only adds delay on top of the
  // propagation draw, so total >= prop >= floor and the barrier-merge
  // contract holds under any load (see the class comment).
  engine_ = std::make_unique<sim::ShardedEngine>(contexts_.size() - 1,
                                                 link_.prop.floor);
  // Incarnations start at 1, so a message with incarnation 0 names no
  // edge: it is node `from`'s broadcast timer, a self-message.
  engine_->set_message_handler(
      [this](const sim::Message* batch, std::size_t count) {
        if (batch->incarnation == 0) {
          broadcast(batch->from);
        } else {
          deliver(batch, count);
        }
      });

  for (const net::Edge& e : graph.initial_edges()) add_edge(e, 0.0, true);
  // Every topology event is scheduled up front as a global (sharded: run
  // at a barrier with every shard parked).
  for (const net::TopologyEvent& ev : graph.events()) {
    engine_->at_global(ev.at, [this, ev] { apply_event(ev); });
  }

  // Broadcast phases are staggered across the first delta_h so that
  // same-timestamp broadcast storms don't depend on node order.
  next_broadcast_hw_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    next_broadcast_hw_[i] =
        params_.delta_h * (static_cast<double>(i + 1) / static_cast<double>(n));
    schedule_broadcast(static_cast<NodeId>(i));
  }
}

void NetworkSimulation::run_until(sim::Time t) {
  engine_->run_until(t);
  flush_sharded_trace();
  if (engine_clamped_count() > 0) {
    stats_.first_clamped_time = engine_->first_clamped_time();
    stats_.first_clamped_seq = engine_->first_clamped_seq();
  }
  // Audit the paper's standing assumption over the (T+D)-windows newly
  // completed by this call; the sweep's delta cursor makes repeated
  // incremental run_until calls cost one schedule pass in total, and
  // the set-range is_connected avoids materializing each union.
  while (audit_sweep_.next(now())) {
    ++stats_.connectivity_windows_checked;
    if (!net::is_connected(store_->size(), audit_sweep_.window_union())) {
      ++stats_.connectivity_windows_disconnected;
    }
  }
}

sim::PeriodicId NetworkSimulation::schedule_periodic(
    sim::Time start, sim::Duration period, std::function<void(sim::Time)> fn) {
  return engine_->every_global(start, period, std::move(fn));
}

void NetworkSimulation::cancel_periodic(sim::PeriodicId id) {
  engine_->cancel_every_global(id);
}

double NetworkSimulation::logical_clock(NodeId u) const {
  return store_->logical_clock(u, clocks_[u].value_at(now()));
}

double NetworkSimulation::hardware_clock(NodeId u) const {
  return clocks_[u].value_at(now());
}

double NetworkSimulation::skew(NodeId u, NodeId v) const {
  return logical_clock(u) - logical_clock(v);
}

void NetworkSimulation::sample_clocks(std::vector<double>& hw,
                                      std::vector<double>& logical) const {
  const std::size_t n = store_->size();
  hw.resize(n);
  logical.resize(n);
  const sim::Time t = now();
  for (std::size_t i = 0; i < n; ++i) hw[i] = clocks_[i].value_at(t);
  store_->advance(hw.data(), logical.data(), n);
}

std::vector<net::Edge> NetworkSimulation::current_edges() const {
  std::vector<net::Edge> out;
  out.reserve(adj_.live_slots() / 2);
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (std::uint32_t s = adj_.begin(u); s < adj_.end(u); ++s) {
      if (u < adj_.peer(s)) out.emplace_back(u, adj_.peer(s));
    }
  }
  std::sort(out.begin(), out.end());  // segments keep insertion order
  return out;
}

double NetworkSimulation::edge_age(const net::Edge& e) const {
  const std::uint32_t s = adj_.find(e.u, e.v);
  if (s == Adjacency::kNpos) return -1.0;
  return now() - adj_.up_time(s);
}

double NetworkSimulation::max_queue_backlog() const {
  const net::TrafficModel& m = link_.traffic;
  if (!m.pipeline_active() || m.bandwidth <= 0.0) return 0.0;
  const sim::Time t = now();
  double worst = 0.0;  // residual busy time over every direction
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (std::uint32_t s = adj_.begin(u); s < adj_.end(u); ++s) {
      worst = std::max(worst, adj_.dir(s).busy_until - t);
    }
  }
  return std::max(0.0, worst) * m.bandwidth;
}

void NetworkSimulation::apply_event(const net::TopologyEvent& ev) {
  ++stats_.topology_events_applied;
  const sim::Time t = now();
  if (trace_) {
    const obs::TraceEvent record{obs::TraceEvent::Kind::kTopology, t,
                                 ev.edge.u, ev.edge.v, 0.0, 0.0, ev.add};
    if (sharded_) {
      trace_bufs_[engine_->global_ctx()].push_back(
          PendingTrace{record, 0, global_trace_seq_++, true});
    } else {
      recorder_->on_trace(record);
    }
  }
  if (ev.add) {
    add_edge(ev.edge, t, false);
  } else {
    remove_edge(ev.edge, t);
  }
}

void NetworkSimulation::add_edge(const net::Edge& e, sim::Time t,
                                 bool initial) {
  if (adj_.find(e.u, e.v) != Adjacency::kNpos) return;  // redundant add
  const std::uint64_t incarnation = ++next_incarnation_;
  const double hw_u = clocks_[e.u].value_at(t);
  const double hw_v = clocks_[e.v].value_at(t);
  adj_.insert(e.u, e.v, incarnation, t, hw_u);
  adj_.insert(e.v, e.u, incarnation, t, hw_v);
  store_->edge_up(NodeContext{e.u, hw_u, t}, e.v);
  store_->edge_up(NodeContext{e.v, hw_v, t}, e.u);
  if (!initial) {
    // Discovery exchange: both endpoints immediately send their clocks on
    // the new edge, so it carries an estimate within one delay bound.
    // Each half-edge is its segment's last slot (read back after both
    // inserts: the second may have relocated u's segment).  Topology
    // deltas run in the global context (shards parked), so reading
    // either endpoint's clock here is safe for any partition.
    const std::size_t ctx = engine_->global_ctx();
    send(ctx, e.u, adj_.end(e.u) - 1, store_->logical_clock(e.u, hw_u), t);
    send(ctx, e.v, adj_.end(e.v) - 1, store_->logical_clock(e.v, hw_v), t);
    flush_outbox();
  }
  // Background flows ride every edge incarnation, initial ones included;
  // they stop by themselves when this incarnation dies.
  start_flows(e, incarnation, t);
}

void NetworkSimulation::remove_edge(const net::Edge& e, sim::Time t) {
  const std::uint32_t su = adj_.find(e.u, e.v);
  if (su == Adjacency::kNpos) return;  // redundant remove
  adj_.erase(e.u, su);
  adj_.erase(e.v, adj_.find(e.v, e.u));
  store_->edge_down(NodeContext{e.u, clocks_[e.u].value_at(t), t}, e.v);
  store_->edge_down(NodeContext{e.v, clocks_[e.v].value_at(t), t}, e.u);
}

void NetworkSimulation::schedule_broadcast(NodeId u) {
  const sim::Message timer{u, u, 0.0, 0};
  engine_->at(ctx_of(u), clocks_[u].time_when(next_broadcast_hw_[u]), &timer,
              1);
}

void NetworkSimulation::broadcast(NodeId u) {
  // Sharded: runs on u's shard, where u's clock, node state, message
  // index and segment are owner-local, and the adjacency only ever
  // changes shape at barriers, so reading it mid-window is race-free.
  const sim::Time t = node_now(u);
  const double value = store_->logical_clock(u, clocks_[u].value_at(t));
  for (std::uint32_t s = adj_.begin(u); s < adj_.end(u); ++s) {
    send(ctx_of(u), u, s, value, t);
  }
  flush_outbox();
  next_broadcast_hw_[u] += params_.delta_h;
  schedule_broadcast(u);
}

void NetworkSimulation::send(std::size_t ctx, NodeId from, std::uint32_t slot,
                             double value, sim::Time t) {
  const sim::Message m{from, adj_.peer(slot), value, adj_.incarnation(slot)};
  // Message k of `from` draws from the word (seed, from, k) alone, so
  // its delay is the same at every shard count.  The clamp keeps the
  // model's promise delay <= bound and the floor the barrier windows
  // rest on.
  const std::uint64_t k = node_msg_index_[from]++;
  double d = std::clamp(
      link_.prop.sample(util::mix_seed(util::mix_seed(options_.seed, from), k)),
      std::max(link_.prop.floor, 1e-12), link_.prop.bound);
  // Through the link pipeline: queue wait + transmission time on top of
  // the propagation draw (bit-exactly d when no finite bandwidth is
  // configured).  Sync messages are never queue-dropped -- their
  // latency saturates at the bound instead, preserving the delay <= T
  // assumption the proofs rest on.  The pipeline only ADDS delay, so
  // the floor survives any traffic model.
  Context& c = contexts_[ctx];
  d = sync_link_delay(adj_.dir(slot), t, d, c.ecn_marks, c.peak_queue_bytes);
  c.sync_delay_max = std::max(c.sync_delay_max, d);
  ++c.messages_sent;
  if (trace_) {
    trace(ctx, from,
          {obs::TraceEvent::Kind::kSend, t, from, m.to, value, t + d, false});
  }
  if (!sharded_) {
    // Staged for the flush, which coalesces same-instant deliveries.
    stats_.sync_delay_sum += d;
    outbox_.emplace_back(t + d, m);
    return;
  }
  node_sync_delay_[from] += d;
  ++c.delivery_events;  // one event per message
  // Staged through the engine's outbox under the canonical (t, send_t,
  // origin, index) key; k is the index.
  engine_->post(ctx, ctx_of(m.to), t + d, sim::PostKey{t, from, k}, m);
}

void NetworkSimulation::flush_outbox() {
  if (outbox_.empty()) return;
  // Group by exact delivery instant.  The sort is stable so same-instant
  // messages keep their send order -- that, plus the fact that distinct
  // instants are ordered by time regardless of seq, is what makes a
  // batch deliver exactly as one event per message would.  An outbox
  // already in time order (one message, or a constant delay) is left
  // alone: std::stable_sort allocates a buffer on every call.
  const auto earlier = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(outbox_.begin(), outbox_.end(), earlier)) {
    std::stable_sort(outbox_.begin(), outbox_.end(), earlier);
  }
  for (std::size_t i = 0; i < outbox_.size();) {
    std::size_t j = i + 1;
    while (j < outbox_.size() && outbox_[j].first == outbox_[i].first) ++j;
    ++contexts_[0].delivery_events;
    batch_.clear();
    for (std::size_t k = i; k < j; ++k) batch_.push_back(outbox_[k].second);
    engine_->at(0, outbox_[i].first, batch_.data(), batch_.size());
    i = j;
  }
  outbox_.clear();
}

void NetworkSimulation::deliver(const sim::Message* batch,
                                std::size_t count) {
  const std::size_t ctx = ctx_of(batch->to);
  const sim::Time t = node_now(batch->to);
  Sink sink(this);
  std::vector<StoreDelivery>& run = contexts_[ctx].scratch;
  const auto flush = [&] {
    if (run.empty()) return;
    store_->on_deliveries(run.data(), run.size(), sink);
    run.clear();
  };
  for (const sim::Message* m = batch; m != batch + count; ++m) {
    const std::uint32_t s = adj_.find(m->to, m->from, m->incarnation);
    if (s == Adjacency::kNpos) {
      // Emit the drop at its original position in the batch: flush the
      // accepted run so far, then count/trace the drop.
      flush();
      ++contexts_[ctx].messages_dropped;
      if (trace_) {
        trace(ctx, m->to, {obs::TraceEvent::Kind::kDrop, t, m->from, m->to,
                           m->value, 0.0, false});
      }
      continue;
    }
    run.push_back(StoreDelivery{m->from, m->to, m->value,
                                clocks_[m->to].value_at(t), t, s});
  }
  flush();
}

double NetworkSimulation::sync_link_delay(net::LinkDir& dir, sim::Time t,
                                          double d_prop,
                                          std::uint64_t& ecn_marks,
                                          std::uint64_t& peak_queue_bytes) {
  const net::TrafficModel& m = link_.traffic;
  // The early return IS the ideal-link degeneration: with no finite
  // bandwidth the propagation draw passes through untouched, so "off"
  // and infinite-bandwidth "idle" produce identical bytes (the
  // link-equivalence matrix holds this door shut).
  if (!m.pipeline_active() || m.bandwidth <= 0.0) return d_prop;
  net::LinkDecision dec =
      net::link_offer(m, dir, t, m.sync_bytes, /*droppable=*/false);
  if (dec.marked) ++ecn_marks;
  peak_queue_bytes = std::max(
      peak_queue_bytes, static_cast<std::uint64_t>(dec.backlog_bytes));
  return std::min(dec.wait + dec.tx + d_prop, link_.prop.bound);
}

void NetworkSimulation::start_flows(const net::Edge& e,
                                    std::uint64_t incarnation, sim::Time t) {
  if (!link_.traffic.has_flows()) return;
  const double period = link_.traffic.flow_period();
  const std::uint64_t key = edge_key(e);
  const NodeId ends[2][2] = {{e.u, e.v}, {e.v, e.u}};
  for (int i = 0; i < 2; ++i) {
    const NodeId from = ends[i][0];
    const NodeId to = ends[i][1];
    // Stable per-direction phase in (0, 1) periods: staggers flow starts
    // across links without drawing randomness.
    const sim::Time first =
        t + period * net::flow_phase(2 * key + static_cast<std::uint64_t>(i));
    // add_edge runs at barriers (or in the constructor) with every
    // shard parked, exactly the context ShardedEngine::at allows.
    engine_->at(ctx_of(from), first, [this, from, to, incarnation] {
      flow_emit(from, to, incarnation);
    });
  }
}

void NetworkSimulation::flow_emit(NodeId from, NodeId to,
                                  std::uint64_t incarnation) {
  const std::uint32_t s = adj_.find(from, to, incarnation);
  if (s == Adjacency::kNpos) return;  // the flow dies with its edge
  const sim::Time t = node_now(from);
  const net::LinkDecision dec =
      net::link_offer(link_.traffic, adj_.dir(s), t, link_.traffic.flow_bytes(),
                      link_.traffic.flow_droppable());
  Context& c = contexts_[ctx_of(from)];
  ++c.traffic_packets;
  if (dec.dropped) ++c.traffic_dropped;
  if (dec.marked) ++c.ecn_marks;
  c.peak_queue_bytes = std::max(c.peak_queue_bytes,
                                static_cast<std::uint64_t>(dec.backlog_bytes));
  engine_->at(ctx_of(from), t + link_.traffic.flow_period(),
              [this, from, to, incarnation] {
                flow_emit(from, to, incarnation);
              });
}

void NetworkSimulation::trace(std::size_t ctx, NodeId node,
                              const obs::TraceEvent& ev) {
  if (!sharded_) {
    recorder_->on_trace(ev);
    return;
  }
  trace_bufs_[ctx].push_back(
      PendingTrace{ev, node, node_trace_seq_[node]++, false});
}

void NetworkSimulation::flush_sharded_trace() {
  if (!trace_) return;
  std::size_t total = 0;
  for (const std::vector<PendingTrace>& buf : trace_bufs_) total += buf.size();
  if (total == 0) return;
  std::vector<PendingTrace> merged;
  merged.reserve(total);
  for (std::vector<PendingTrace>& buf : trace_bufs_) {
    merged.insert(merged.end(), buf.begin(), buf.end());
    buf.clear();
  }
  // The canonical emission order (see PendingTrace): this reproduces the
  // sequence a single-threaded sharded run interleaves naturally --
  // same-time records order globals first, then by node, then by that
  // node's own emission order -- so the recorder sees identical streams
  // for every shard count.
  std::sort(merged.begin(), merged.end(),
            [](const PendingTrace& a, const PendingTrace& b) {
              if (a.ev.t != b.ev.t) return a.ev.t < b.ev.t;
              if (a.global != b.global) return a.global;
              if (a.node != b.node) return a.node < b.node;
              return a.seq < b.seq;
            });
  for (const PendingTrace& p : merged) recorder_->on_trace(p.ev);
}

const RunStats& NetworkSimulation::stats() const {
  stats_.arena_bytes = store_->arena_bytes();
  stats_.messages_sent = 0;
  stats_.messages_delivered = 0;
  stats_.messages_dropped = 0;
  stats_.delivery_events = 0;
  stats_.jumps = 0;
  stats_.conformance_monotonicity_failures = 0;
  stats_.traffic_packets = 0;
  stats_.traffic_dropped = 0;
  stats_.ecn_marks = 0;
  stats_.peak_queue_bytes = 0;
  stats_.sync_delay_max = 0.0;
  for (const Context& c : contexts_) {
    stats_.messages_sent += c.messages_sent;
    stats_.messages_delivered += c.messages_delivered;
    stats_.messages_dropped += c.messages_dropped;
    stats_.delivery_events += c.delivery_events;
    stats_.jumps += c.jumps;
    stats_.conformance_monotonicity_failures += c.monotonicity_failures;
    stats_.traffic_packets += c.traffic_packets;
    stats_.traffic_dropped += c.traffic_dropped;
    stats_.ecn_marks += c.ecn_marks;
    // max folds commute, so these two stay K-invariant without any
    // per-node bookkeeping.
    stats_.peak_queue_bytes = std::max(stats_.peak_queue_bytes,
                                       c.peak_queue_bytes);
    stats_.sync_delay_max = std::max(stats_.sync_delay_max, c.sync_delay_max);
  }
  // Classic runs sum the float totals in event order and audit the
  // envelope per delivery, straight into stats_.
  if (!sharded_) return stats_;
  stats_.total_jump = 0.0;
  for (const double jump : node_jump_) stats_.total_jump += jump;
  // Like total_jump: per-sender sums folded in node order keep the float
  // addition order -- and the serialized double -- shard-count-invariant.
  stats_.sync_delay_sum = 0.0;
  for (const double d : node_sync_delay_) stats_.sync_delay_sum += d;
  // Per-delivery envelope checks are barrier-audited in sharded mode
  // (see Sink::after); these stay zero for every shard count.
  stats_.conformance_checks = 0;
  stats_.conformance_envelope_failures = 0;
  return stats_;
}

void NetworkSimulation::check_edge_conformance(const StoreDelivery& d,
                                               double to_logical) {
  const net::Edge e(d.from, d.to);
  ++stats_.conformance_checks;
  // The node-side B runs on hardware ages, which an outside observer
  // cannot see exactly; the slowest admissible clock gives the youngest
  // age and hence the loosest envelope any conforming node could be
  // holding, so checking against it never reports a false violation.
  const double age_hw =
      (1.0 - params_.rho) * (now() - adj_.up_time(d.slot));
  const double allowed = bfunc_(age_hw) + options_.conformance_slack;
  // |L_from - L_to| is |skew(e.u, e.v)| bit for bit, in either order.
  const double observed = std::abs(logical_clock(d.from) - to_logical);
  const bool violated = observed > allowed;
  if (violated) {
    ++stats_.conformance_envelope_failures;
  }
  if (trace_) {
    recorder_->on_trace({obs::TraceEvent::Kind::kConformance, now(),
                         e.u, e.v, observed, allowed, violated});
  }
}

}  // namespace gcs::core
