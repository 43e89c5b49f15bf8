// gcs::core -- the protocol-automaton interface.
//
// NetworkSimulation is protocol-agnostic: it owns clocks, edges, and
// message delivery, and drives node state through the batch-oriented
// NodeStore interface (node_store.hpp).  A NodeAutomaton is the
// per-node, virtual-dispatch flavour of that contract (DcsaNode, the
// reference the columns store is held to, and bench_ablation's custom
// automatons); AutomatonStore adapts a vector of these onto the store
// interface the simulator actually calls.
//
// Every callback receives one NodeContext instead of loose
// (NodeId, double) pairs: the node's own id, the reading of ITS OWN
// hardware clock (automata never see real time, exactly as in the
// paper's model), and the simulation instant that produced the reading
// (observability only -- a conforming automaton must not branch on it).
// The simulator calls step() after every input event; the automaton
// returns the (non-negative) amount it jumped its logical clock
// forward, which the simulator uses for statistics and conformance
// checking.
#ifndef GCS_CORE_NODE_AUTOMATON_HPP
#define GCS_CORE_NODE_AUTOMATON_HPP

#include "net/topology.hpp"

namespace gcs::core {

using NodeId = net::NodeId;

// The unified callback argument: who is being driven, what its hardware
// clock reads, and when (simulation time) the reading was taken.
struct NodeContext {
  NodeId self = 0;
  double hw_now = 0.0;  // the node's own hardware-clock reading
  double now = 0.0;     // simulation time of the reading (diagnostic)
};

class NodeAutomaton {
 public:
  virtual ~NodeAutomaton() = default;

  // Called once before any other callback; ctx.hw_now is the node's
  // initial hardware-clock reading (normally 0).
  virtual void start(const NodeContext& ctx) = 0;

  virtual void on_edge_up(const NodeContext& ctx, NodeId peer) = 0;
  virtual void on_edge_down(const NodeContext& ctx, NodeId peer) = 0;

  // A neighbour's logical clock value, sampled at its send time.
  virtual void on_message(const NodeContext& ctx, NodeId from,
                          double logical_value) = 0;

  // Runs the jump rule; returns the jump applied (0 if none).
  virtual double step(const NodeContext& ctx) = 0;

  // The node's logical clock as a function of its hardware clock.
  virtual double logical_clock(double hw_now) const = 0;

  // True while the node wants to advance beyond its hardware rate
  // (Algorithm 2's fast mode).
  virtual bool fast_mode() const = 0;
};

}  // namespace gcs::core

#endif  // GCS_CORE_NODE_AUTOMATON_HPP
