// gcs::core -- the ablation variants of Algorithm 2 as named DcsaNode
// constructors: DcsaNode with one of its two rules removed, so the
// skew-vs-message-cost frontier can attribute what each rule buys.  The
// rules themselves are DcsaKernel's (dcsa_kernel.hpp documents them);
// these shims only pick the Variant.
#ifndef GCS_CORE_ABLATION_VARIANTS_HPP
#define GCS_CORE_ABLATION_VARIANTS_HPP

#include "core/dcsa_node.hpp"

namespace gcs::core {

class NoBlockDcsaNode : public DcsaNode {
 public:
  explicit NoBlockDcsaNode(const SyncParams& params)
      : DcsaNode(params, Variant{Variant::Kind::kNoBlock, 1.0}) {}
};

class NoJumpDcsaNode : public DcsaNode {
 public:
  explicit NoJumpDcsaNode(const SyncParams& params)
      : DcsaNode(params, Variant{Variant::Kind::kNoJump, 1.0}) {}
};

}  // namespace gcs::core

#endif  // GCS_CORE_ABLATION_VARIANTS_HPP
