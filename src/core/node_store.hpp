// gcs::core -- NodeStore: the batch-oriented node-state interface the
// simulator drives directly.
//
// NetworkSimulation's hot path no longer calls one virtual per node per
// event.  It hands the store whole delivery batches (on_deliveries) and
// whole-population clock reads (advance); the store applies the DCSA
// input/step rules record by record, calling back through a DeliverySink
// around each record so the simulator can emit traces, statistics, and
// conformance checks at EXACTLY the points the per-node path emitted
// them.  Trajectory bytes are the contract: a store must apply records
// in batch order, and the per-record arithmetic is DcsaKernel's
// (dcsa_kernel.hpp).
//
// Two implementations:
//   * DcsaColumns (dcsa_columns.hpp) -- flat struct-of-arrays state for
//     every DCSA variant, with per-edge estimates in the simulator's
//     Adjacency: the default and the reason this interface exists.
//   * AutomatonStore (below) -- adapts a vector of virtual
//     NodeAutomatons: the reference path the equivalence matrices
//     compare against, and home to bench_ablation's custom automatons.
#ifndef GCS_CORE_NODE_STORE_HPP
#define GCS_CORE_NODE_STORE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/node_automaton.hpp"

namespace gcs::core {

// One message record in a delivery batch.  The simulator resolves the
// receiver's hardware clock and its Adjacency slot for the sender before
// handing the batch over, so stores never touch clocks or search edges.
struct StoreDelivery {
  NodeId from = 0;
  NodeId to = 0;
  double value = 0.0;   // sender's logical clock, sampled at send time
  double hw_now = 0.0;  // receiver's hardware clock at delivery
  double now = 0.0;     // simulation time of delivery
  // The half-edge to -> from in the simulator's Adjacency
  // (Adjacency::kNpos: none, so nothing is adopted).
  std::uint32_t slot = 0xFFFFFFFFu;
};

// Order-preserving hooks around each record of a batch: before() fires
// ahead of the record's on_message (where the kDeliver trace goes),
// after() fires once its step() ran, carrying the jump applied (where
// jump statistics and conformance checks go).
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void before(const StoreDelivery& d) = 0;
  virtual void after(const StoreDelivery& d, double jump) = 0;
};

class NodeStore {
 public:
  virtual ~NodeStore() = default;

  virtual std::size_t size() const = 0;

  // Lifecycle + topology inputs (always delivered through the
  // simulator's barrier/global context, never concurrently).  The
  // simulator has already updated its Adjacency when edge_up/edge_down
  // arrive.
  virtual void start(const NodeContext& ctx) = 0;
  virtual void edge_up(const NodeContext& ctx, NodeId peer) = 0;
  virtual void edge_down(const NodeContext& ctx, NodeId peer) = 0;

  // Apply `count` delivery records IN ORDER: for each record, call
  // sink.before(d), run the receiver's on_message + step, then call
  // sink.after(d, jump).  Records for distinct receivers may be driven
  // concurrently by different shards, but never two records for the
  // same receiver.
  virtual void on_deliveries(const StoreDelivery* batch, std::size_t count,
                             DeliverySink& sink) = 0;

  // Whole-population logical-clock read: logical[i] = L_i(hw_now[i]) for
  // all `count == size()` nodes.  Pure -- state between inputs is a
  // clock free-running at hardware rate, so advancing it is a read.
  virtual void advance(const double* hw_now, double* logical,
                       std::size_t count) const = 0;

  virtual double logical_clock(NodeId u, double hw_now) const = 0;
  virtual bool fast_mode(NodeId u) const = 0;

  // Bytes of node/peer state held in the store's flat arenas (0 for the
  // adapter, whose state hides behind per-node heap objects); surfaces
  // in RunStats::arena_bytes so memory regressions are diffable.
  virtual std::size_t arena_bytes() const = 0;

  // The per-node automaton behind slot u, or nullptr when the store has
  // no such object (DcsaColumns).  Tests and benches that poke protocol
  // internals (is_blocked_by) go through here.
  virtual NodeAutomaton* automaton(NodeId u) {
    (void)u;
    return nullptr;
  }
};

// Adapter: a vector of virtual NodeAutomatons behind the store
// interface.  Call order replicates the old per-node path exactly --
// the equivalence matrix holds DcsaColumns to this store's bytes.
class AutomatonStore : public NodeStore {
 public:
  explicit AutomatonStore(std::vector<std::unique_ptr<NodeAutomaton>> nodes);

  std::size_t size() const override { return nodes_.size(); }
  void start(const NodeContext& ctx) override;
  void edge_up(const NodeContext& ctx, NodeId peer) override;
  void edge_down(const NodeContext& ctx, NodeId peer) override;
  void on_deliveries(const StoreDelivery* batch, std::size_t count,
                     DeliverySink& sink) override;
  void advance(const double* hw_now, double* logical,
               std::size_t count) const override;
  double logical_clock(NodeId u, double hw_now) const override;
  bool fast_mode(NodeId u) const override;
  std::size_t arena_bytes() const override { return 0; }
  NodeAutomaton* automaton(NodeId u) override { return nodes_[u].get(); }

 private:
  std::vector<std::unique_ptr<NodeAutomaton>> nodes_;
};

}  // namespace gcs::core

#endif  // GCS_CORE_NODE_STORE_HPP
