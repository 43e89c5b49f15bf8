// gcs::util -- small deterministic RNG wrapper shared by scenario
// generators, delay models, and drift schedules.  All randomness in a run
// flows through explicitly seeded Rng instances so that experiments are
// reproducible event-for-event.
//
// The engine is created on the first draw, so an Rng that never draws
// (a per-node delay stream under a constant delay, say) costs its seed
// and a null pointer instead of the engine's 2.5 KB of state.  The draws
// are exactly those of an eagerly constructed std::mt19937_64(seed).
//
// mix_seed and normal_at are the counter-based side: pure functions of
// their arguments, with no state to seed, skip or copy.
#ifndef GCS_UTIL_RNG_HPP
#define GCS_UTIL_RNG_HPP

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>

namespace gcs::util {

// splitmix64 of `seed` advanced `stream + 1` golden-ratio steps: a well
// mixed 64-bit word per (seed, stream).  Derives the per-node delay
// streams, the scenario seed (stream 0), the background-flow phases and
// the clock walks' draws.
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
  explicit Rng(std::uint64_t seed = 1) : seed_(seed) {}

  // Copies continue the stream from the same position.
  Rng(const Rng& other) : seed_(other.seed_), gen_(clone(other.gen_)) {}
  Rng& operator=(const Rng& other) {
    if (this != &other) {
      seed_ = other.seed_;
      gen_ = clone(other.gen_);
    }
    return *this;
  }
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine());
  }

  // Inclusive on both ends.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine());
  }

  double normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine());
  }

  std::mt19937_64& engine() {
    if (!gen_) gen_ = std::make_unique<std::mt19937_64>(seed_);
    return *gen_;
  }

 private:
  static std::unique_ptr<std::mt19937_64> clone(
      const std::unique_ptr<std::mt19937_64>& gen) {
    return gen ? std::make_unique<std::mt19937_64>(*gen) : nullptr;
  }

  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> gen_;
};

}  // namespace gcs::util

#endif  // GCS_UTIL_RNG_HPP
