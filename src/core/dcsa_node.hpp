// gcs::core -- Algorithm 2 of Kuhn-Locher-Oshman (SPAA'09), the dynamic
// clock synchronization automaton (DCSA), as one virtual NodeAutomaton
// per node: the reference path behind AutomatonStore.  Peer estimates
// live in a std::map; every rule is DcsaKernel's (dcsa_kernel.hpp
// explains the algorithm and the variants).
#ifndef GCS_CORE_DCSA_NODE_HPP
#define GCS_CORE_DCSA_NODE_HPP

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "core/bfunc.hpp"
#include "core/dcsa_kernel.hpp"
#include "core/node_automaton.hpp"
#include "core/params.hpp"

namespace gcs::core {

class DcsaNode : public NodeAutomaton {
  // The peer slots in DcsaKernel's `each(f)` form (defined first: the
  // members below deduce its type).
  auto each_slot() const {
    return [this](const auto& f) {
      for (const auto& kv : peers_) f(kv.second);
    };
  }

 public:
  explicit DcsaNode(const SyncParams& params, Variant variant = Variant{})
      : kernel_(params, BFunction(params), variant) {}

  DcsaNode(const SyncParams& params, BFunction tolerance_fn)
      : kernel_(params, tolerance_fn, Variant{}) {}

  void start(const NodeContext& ctx) override {
    self_ = ctx.self;
    offset_ = -ctx.hw_now;  // logical clock starts at 0, tracking hardware rate
  }

  void on_edge_up(const NodeContext& ctx, NodeId peer) override {
    PeerSlot& s = peers_[peer] = PeerSlot{};
    s.hw_up = ctx.hw_now;
    s.weight = weight_fn_
                   ? std::clamp(weight_fn_(self_, peer), min_weight_, 1.0)
                   : kernel_.variant().weight;
  }

  void on_edge_down(const NodeContext& /*ctx*/, NodeId peer) override {
    peers_.erase(peer);
  }

  void on_message(const NodeContext& ctx, NodeId from,
                  double logical_value) override {
    auto it = peers_.find(from);
    if (it == peers_.end()) return;  // edge vanished mid-flight; stale input
    PeerSlot& s = it->second;
    if (!kernel_.adopts(s, ctx.hw_now, logical_value)) return;
    s.value = logical_value;
    s.hw_recv = ctx.hw_now;
    s.has_estimate = true;
  }

  double step(const NodeContext& ctx) override {
    return kernel_.step(ctx.hw_now, offset_, fast_, each_slot());
  }

  double logical_clock(double hw_now) const override {
    return hw_now + offset_;
  }

  bool fast_mode() const override { return fast_; }

  // True iff `peer`'s tolerance cap currently binds strictly below this
  // node's unconstrained jump target: the peer is holding the node back.
  bool is_blocked_by(NodeId peer, double hw_now) const {
    auto it = peers_.find(peer);
    if (it == peers_.end() || !it->second.has_estimate) return false;
    return kernel_.allowed(it->second, hw_now) <
           kernel_.target(hw_now, logical_clock(hw_now), each_slot());
  }

  const BFunction& tolerance_fn() const { return kernel_.bfunc(); }

 protected:
  // Per-edge weights for the weighted variant: `weight(self, peer)`,
  // clamped to [min_weight, 1] when the edge comes up.
  using WeightFn = std::function<double(NodeId, NodeId)>;
  DcsaNode(const SyncParams& params, WeightFn weight, double min_weight)
      : kernel_(params, BFunction(params),
                Variant{Variant::Kind::kWeighted, 1.0}),
        weight_fn_(std::move(weight)),
        min_weight_(min_weight) {}

 private:
  DcsaKernel kernel_;
  WeightFn weight_fn_;
  double min_weight_ = 0.0;
  NodeId self_ = 0;
  double offset_ = 0.0;
  bool fast_ = false;
  std::map<NodeId, PeerSlot> peers_;  // ordered: deterministic iteration
};

}  // namespace gcs::core

#endif  // GCS_CORE_DCSA_NODE_HPP
