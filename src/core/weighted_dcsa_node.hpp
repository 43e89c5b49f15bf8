// gcs::core -- the weighted-tolerance extension from the paper's
// conclusion with per-edge weights: a DcsaNode running the weighted
// variant (dcsa_kernel.hpp) whose edge weights come from a function of
// (self, peer), e.g. net::LinkQualityMap::weight.
#ifndef GCS_CORE_WEIGHTED_DCSA_NODE_HPP
#define GCS_CORE_WEIGHTED_DCSA_NODE_HPP

#include <utility>

#include "core/dcsa_node.hpp"

namespace gcs::core {

class WeightedDcsaNode : public DcsaNode {
 public:
  using DcsaNode::WeightFn;

  // `weight(self, peer)` returns the edge's tolerance weight in (0, 1].
  // Weights are clamped below at `min_weight` so a mislabeled link can't
  // freeze the jump rule.
  WeightedDcsaNode(const SyncParams& params, WeightFn weight,
                   double min_weight = 0.25)
      : DcsaNode(params, std::move(weight), min_weight) {}
};

}  // namespace gcs::core

#endif  // GCS_CORE_WEIGHTED_DCSA_NODE_HPP
