// gcs::util -- strict number parsing for config spec strings.
#ifndef GCS_UTIL_NUMBER_HPP
#define GCS_UTIL_NUMBER_HPP

#include <exception>
#include <string>

namespace gcs::util {

// std::stod that must consume all of `text`: false for "", "0.5abc",
// non-numbers and out-of-range values, so a caller can quote its whole
// spec in the error instead of stod's bare "stod".
inline bool parse_double(const std::string& text, double* out) {
  std::size_t used = 0;
  try {
    *out = std::stod(text, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == text.size();
}

}  // namespace gcs::util

#endif  // GCS_UTIL_NUMBER_HPP
