// util::Rng holds one std::mt19937_64 by value.  Its draws must be the
// ones a bare engine with the same seed gives, and copies -- taken before
// or after the first draw -- must carry the stream position with them.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>

#include "util/rng.hpp"

namespace {

using gcs::util::Rng;

// Mirrors Rng's draws on an eager engine.
struct EagerRng {
  explicit EagerRng(std::uint64_t seed) : gen(seed) {}
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen);
  }
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(gen);
  }
  std::mt19937_64 gen;
};

// Draws one of each kind per round, mixing kinds so a miscount in any of
// them shifts every later draw.
template <typename A, typename B>
void expect_same_draws(A& a, B& b, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    ASSERT_EQ(a.uniform(0.25, 1.0), b.uniform(0.25, 1.0)) << "round " << i;
    ASSERT_EQ(a.uniform_int(0, 1000 + i), b.uniform_int(0, 1000 + i))
        << "round " << i;
    ASSERT_EQ(a.normal(0.0, 0.5), b.normal(0.0, 0.5)) << "round " << i;
  }
}

TEST(Rng, LazyEngineDrawsLikeEagerEngine) {
  for (std::uint64_t seed : {0ULL, 1ULL, 7ULL, 0x9E3779B97F4A7C15ULL}) {
    Rng rng(seed);
    EagerRng eager(seed);
    expect_same_draws(rng, eager, 1000);
  }
}

TEST(Rng, DefaultSeedIsOne) {
  Rng rng;
  EagerRng eager(1);
  expect_same_draws(rng, eager, 10);
}

TEST(Rng, CopyTakenMidStreamContinuesIdentically) {
  Rng original(42);
  EagerRng eager(42);
  expect_same_draws(original, eager, 37);
  Rng copy = original;
  EagerRng eager_copy = eager;
  expect_same_draws(copy, eager_copy, 500);
  expect_same_draws(original, eager, 500);
}

TEST(Rng, CopyBeforeFirstDrawStartsAtTheSeed) {
  const Rng untouched(9);
  Rng copy = untouched;
  EagerRng eager(9);
  expect_same_draws(copy, eager, 100);
}

TEST(Rng, CopyAssignmentAndMoveCarryThePosition) {
  Rng a(5);
  EagerRng eager(5);
  expect_same_draws(a, eager, 20);
  Rng b(123);
  b = a;
  EagerRng eager_b = eager;
  expect_same_draws(b, eager_b, 100);
  Rng moved = std::move(a);
  expect_same_draws(moved, eager, 100);
  // Assigning an untouched stream resets to that stream's seed.
  b = Rng(77);
  EagerRng eager77(77);
  expect_same_draws(b, eager77, 100);
}

}  // namespace
