// Strict numeric flag parsing shared by the castream command-line tools.
#ifndef CASTREAM_EXAMPLES_CLI_FLAGS_H_
#define CASTREAM_EXAMPLES_CLI_FLAGS_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <system_error>

namespace castream::cli {

/// \brief Parses the value token following `flag` into `*out`. The whole
/// token must be decimal digits and the value must fit T, so "12abc", "-1",
/// "" and 4294967296 for a uint32_t field are rejected (with a message
/// naming the flag) instead of being truncated or narrowed.
template <std::unsigned_integral T>
bool ParseUnsigned(const char* flag, const char* token, T* out) {
  const char* end = token + std::strlen(token);
  T value{};
  const auto [ptr, ec] = std::from_chars(token, end, value, 10);
  if (token == end || ec != std::errc{} || ptr != end) {
    std::fprintf(stderr,
                 "%s: expected a decimal integer in [0, %ju], got '%s'\n",
                 flag, static_cast<uintmax_t>(std::numeric_limits<T>::max()),
                 token);
    return false;
  }
  *out = value;
  return true;
}

}  // namespace castream::cli

#endif  // CASTREAM_EXAMPLES_CLI_FLAGS_H_
