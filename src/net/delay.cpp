#include "net/delay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace gcs::net {

namespace {

void check_delay(sim::Duration x, const char* what) {
  if (!(std::isfinite(x) && x >= 0.0)) {
    throw std::invalid_argument(std::string(what) +
                                " must be finite and >= 0, got " +
                                std::to_string(x));
  }
}

}  // namespace

DelayModel make_constant_delay(sim::Duration bound, sim::Duration value) {
  check_delay(value, "constant delay");
  return make_uniform_delay(bound, value, value);
}

DelayModel make_uniform_delay(sim::Duration bound, sim::Duration lo,
                              sim::Duration hi) {
  check_delay(lo, "uniform lo");
  check_delay(hi, "uniform hi");
  if (lo > hi) throw std::invalid_argument("uniform lo > hi");
  if (!(bound > 0.0)) {
    throw std::invalid_argument("delay bound must be positive");
  }
  return DelayModel{bound, std::min(lo, bound), lo, hi};
}

}  // namespace gcs::net
