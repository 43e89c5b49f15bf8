// gcs::util -- small deterministic RNG wrapper for the scenario and
// topology generators.  All randomness in a run flows through explicitly
// seeded generators or counter-based draws, so experiments are
// reproducible event-for-event.
//
// mix_seed and normal_at are the counter-based side: pure functions of
// their arguments, with no state to seed, skip or copy.  Message delays
// and clock walks draw this way.
#ifndef GCS_UTIL_RNG_HPP
#define GCS_UTIL_RNG_HPP

#include <cmath>
#include <cstdint>
#include <random>

namespace gcs::util {

// splitmix64 of `seed` advanced `stream + 1` golden-ratio steps: a well
// mixed 64-bit word per (seed, stream).  Derives the message delays
// (seed, sender, message index), the scenario seed (stream 0), the
// background-flow phases and the clock walks' draws.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The k-th standard normal of `seed`'s counter-based stream: Box-Muller
// over the uniforms of mix_seed(seed, 2k) in (0, 1] and mix_seed(seed,
// 2k + 1) in [0, 1), 53 bits each.
inline double normal_at(std::uint64_t seed, std::uint64_t k) {
  const double u1 =
      static_cast<double>((mix_seed(seed, 2 * k) >> 11) + 1) * 0x1p-53;
  const double u2 =
      static_cast<double>(mix_seed(seed, 2 * k + 1) >> 11) * 0x1p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(6.283185307179586476925 * u2);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : gen_(seed) {}

  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(gen_);
  }

  // Inclusive on both ends.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(gen_);
  }

  double normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(gen_);
  }

 private:
  std::mt19937_64 gen_;
};

}  // namespace gcs::util

#endif  // GCS_UTIL_RNG_HPP
