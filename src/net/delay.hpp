// gcs::net -- message-delay models.
//
// The algorithm's constants assume every message on a live edge arrives
// within T (SyncParams::T).  A DelayModel is plain data: that bound, a
// guaranteed floor, and the interval [lo, hi] its samples fall in.  A
// sample is a pure function of one random word, so the simulator can
// name message k of sender u by util::mix_seed(util::mix_seed(seed, u),
// k) and get the same delay at every shard count, with no generator
// state to seed, copy or shard.  The simulator clamps every sample into
// [max(floor, 1e-12), bound], so a model can never violate the
// assumption the proofs rest on.
//
// The symmetric assumption -- every message takes AT LEAST `floor` -- is
// the conservative-lookahead window of the sharded engine: during a
// barrier window of width `floor`, no shard can receive anything sent in
// the same window, so shards may run concurrently without ever seeing an
// event out of order.  floor == 0 means "no usable lookahead" (sharded
// mode refuses to run).
#ifndef GCS_NET_DELAY_HPP
#define GCS_NET_DELAY_HPP

#include <cstdint>

#include "sim/engine.hpp"

namespace gcs::net {

// The default model delays every message by exactly its bound, 1.
struct DelayModel {
  sim::Duration bound = 1.0;
  // Guaranteed minimum of every sample (see header comment); the
  // factories derive it from their parameters.
  sim::Duration floor = 1.0;
  sim::Duration lo = 1.0;
  sim::Duration hi = 1.0;

  // lo + (hi - lo) * u, u the top 53 bits of `word` in [0, 1).  A
  // constant model (lo == hi) returns lo bit for bit.
  sim::Duration sample(std::uint64_t word) const {
    return lo + (hi - lo) * (static_cast<double>(word >> 11) * 0x1p-53);
  }
};

// Every message takes exactly `value` (clamped to the bound).  Rejects a
// non-finite or negative value.
DelayModel make_constant_delay(sim::Duration bound, sim::Duration value);

// Delays drawn uniformly from [lo, hi) (clamped to (0, bound]).  Rejects
// a non-finite or negative end and lo > hi.
DelayModel make_uniform_delay(sim::Duration bound, sim::Duration lo,
                              sim::Duration hi);

}  // namespace gcs::net

#endif  // GCS_NET_DELAY_HPP
