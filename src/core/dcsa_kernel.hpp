// gcs::core -- the one copy of Algorithm 2's arithmetic (Kuhn-Locher-
// Oshman, SPAA'09), shared by both node stores.
//
// Each node's logical clock L advances at its hardware rate (slow mode)
// and may JUMP forward (the discrete realization of fast mode):
//
//   * Catch-up: per neighbour, the node keeps a lower bound on the
//     neighbour's clock (the last received value aged at rate
//     (1-rho)/(1+rho) of its own hardware clock, so it never overshoots
//     the truth).  The unconstrained jump target is their max.
//   * Blocking: the jump is capped at min over neighbours w of
//     est_low(w) + B(age_w), so the realized skew toward w never exceeds
//     the edge's tolerance B.  A neighbour whose cap binds strictly
//     below the target BLOCKS the node; a cap below the node's own clock
//     means no jump at all.  Because B(0) > G(n), a brand-new edge never
//     blocks (Lemma 6.10) -- bench_ablation's crippled B breaks exactly
//     this.  Jumps are >= 0: clocks never run backwards.
//
// DcsaKernel runs these rules over one node's peer slots.  The caller
// owns the slots (DcsaNode in a std::map, DcsaColumns in an Adjacency
// segment) and passes `each(f)`, which calls f(PeerSlot) once per slot;
// the folds are order-independent, so slot order cannot change a
// trajectory.
#ifndef GCS_CORE_DCSA_KERNEL_HPP
#define GCS_CORE_DCSA_KERNEL_HPP

#include <stdexcept>
#include <string>

#include "core/bfunc.hpp"
#include "core/params.hpp"
#include "util/number.hpp"

namespace gcs::core {

// The protocol under test (the "variant" axis of
// campaigns/ablation_frontier.json):
//   * dcsa: both rules, as published.
//   * weighted[:w]: the paper's weighted-graph extension.  Only the
//     STEADY floor of an edge's tolerance is scaled by its weight w in
//     (0, 1] (default 0.5): a matured edge tolerates w * b0, not b0,
//     while the young-edge headroom (and so Lemma 6.10) is untouched.
//   * noblock: no blocking cap -- always jump to the catch-up target.
//   * nojump: no catch-up -- clocks free-run, skew is the raw 2*rho*t.
// Every variant still receives and ages estimates, so message cost is
// plain DCSA's: the broadcast schedule is delta_h-driven.
struct Variant {
  enum class Kind { kDcsa, kWeighted, kNoBlock, kNoJump };
  Kind kind = Kind::kDcsa;
  double weight = 1.0;  // weighted: the uniform edge weight

  // Parses the config spelling above; a malformed spec throws
  // std::invalid_argument quoting the whole spec.
  static Variant parse(const std::string& spec) {
    if (spec == "dcsa") return Variant{};
    if (spec == "noblock") return Variant{Kind::kNoBlock, 1.0};
    if (spec == "nojump") return Variant{Kind::kNoJump, 1.0};
    if (spec == "weighted") return Variant{Kind::kWeighted, 0.5};
    if (spec.rfind("weighted:", 0) != 0) {
      throw std::invalid_argument("unknown variant '" + spec + "'");
    }
    double w = 0.0;
    if (!util::parse_double(spec.substr(std::string("weighted:").size()), &w) ||
        !(w > 0.0) || w > 1.0) {
      throw std::invalid_argument("variant '" + spec +
                                  "': weight must be a number in (0, 1]");
    }
    return Variant{Kind::kWeighted, w};
  }
};

// One neighbour's estimate state.
struct PeerSlot {
  double hw_up = 0.0;    // our hardware clock when the edge appeared
  bool has_estimate = false;
  double value = 0.0;    // last received logical clock value
  double hw_recv = 0.0;  // our hardware clock at reception
  double weight = 1.0;   // tolerance weight (read by the weighted variant)
};

class DcsaKernel {
 public:
  DcsaKernel(const SyncParams& params, BFunction bfunc, Variant variant)
      : bfunc_(bfunc),
        kappa_((1.0 - params.rho) / (1.0 + params.rho)),
        variant_(variant) {}

  const BFunction& bfunc() const { return bfunc_; }
  const Variant& variant() const { return variant_; }

  // Lower bound on the peer's current logical clock.  Real time elapsed
  // since reception is at least (hw_now - hw_recv)/(1+rho), and the
  // peer's clock advances at rate >= 1-rho and never jumps backwards.
  double estimate_low(const PeerSlot& s, double hw_now) const {
    return s.value + kappa_ * (hw_now - s.hw_recv);
  }

  // on_message: keep the strongest lower bound.  With variable delays a
  // message can arrive out of order, so a received value is adopted only
  // if it beats the aged estimate.
  bool adopts(const PeerSlot& s, double hw_now, double value) const {
    return !(s.has_estimate && estimate_low(s, hw_now) >= value);
  }

  // The cap this slot puts on the jump: est_low + the edge tolerance.
  double allowed(const PeerSlot& s, double hw_now) const {
    const double base = bfunc_(hw_now - s.hw_up);
    if (variant_.kind != Variant::Kind::kWeighted) {
      return estimate_low(s, hw_now) + base;
    }
    const double floor = bfunc_.floor();
    return estimate_low(s, hw_now) + (s.weight * floor + (base - floor));
  }

  // The unconstrained catch-up target: max of `logical` and estimates.
  template <class EachSlot>
  double target(double hw_now, double logical, const EachSlot& each) const {
    double target = logical;
    each([&](const PeerSlot& s) {
      if (!s.has_estimate) return;
      const double est = estimate_low(s, hw_now);
      target = target > est ? target : est;
    });
    return target;
  }

  // The jump rule: sets `fast`, advances `offset` (L = hw + offset) and
  // returns the jump applied (0 if none).
  template <class EachSlot>
  double step(double hw_now, double& offset, bool& fast,
              const EachSlot& each) const {
    if (variant_.kind == Variant::Kind::kNoJump) {
      fast = false;
      return 0.0;
    }
    const double logical = hw_now + offset;
    const double target = this->target(hw_now, logical, each);
    fast = target > logical;
    double cap = target;
    if (variant_.kind != Variant::Kind::kNoBlock) {
      each([&](const PeerSlot& s) {
        if (!s.has_estimate) return;  // covered by B(0) > G(n)
        const double a = allowed(s, hw_now);
        cap = cap < a ? cap : a;
      });
    }
    if (cap > logical) {
      offset += cap - logical;
      return cap - logical;
    }
    return 0.0;
  }

 private:
  BFunction bfunc_;
  double kappa_;
  Variant variant_;
};

}  // namespace gcs::core

#endif  // GCS_CORE_DCSA_KERNEL_HPP
