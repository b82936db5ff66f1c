// Strict command-line number parsing shared by treediff_serve and
// treediff_client. std::atoi and friends silently map garbage to 0 and
// stop at the first bad character ("4000x" is 4000); these accept a value
// only if the whole argument is one well-formed number in range.

#ifndef TREEDIFF_TOOLS_CLI_FLAGS_H_
#define TREEDIFF_TOOLS_CLI_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace treediff {
namespace cli {

/// Base-10 integer in [lo, hi]; the whole of `text` must be the number.
inline bool ParseInt64(const char* text, int64_t lo, int64_t hi,
                       int64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// ParseInt64 narrowed to int.
inline bool ParseInt(const char* text, int lo, int hi, int* out) {
  int64_t v = 0;
  if (!ParseInt64(text, lo, hi, &v)) return false;
  *out = static_cast<int>(v);
  return true;
}

/// Finite, non-negative decimal (seconds, rates); the whole of `text` must
/// be the number.
inline bool ParseNonNegative(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v) || v < 0) return false;
  *out = v;
  return true;
}

}  // namespace cli
}  // namespace treediff

#endif  // TREEDIFF_TOOLS_CLI_FLAGS_H_
