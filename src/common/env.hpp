// Strict parsing of numeric environment knobs (HG_SEEDS, HG_THREADS, ...).
//
// std::strtol-with-silent-fallback turns a typo ("HG_SEEDS=1O") into a
// surprising-but-plausible run; worse, out-of-range values are UB-adjacent
// via unchecked narrowing. Here the whole value must parse as a decimal
// integer within the caller's bounds — anything else terminates with a
// message naming the variable, which is the right behaviour for a knob that
// silently shapes benchmark results.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <climits>

namespace hg {

// Parses `text` as a decimal integer in [min_value, max_value]. `name` is
// used in diagnostics only. Exits (code 2) on empty input, trailing
// garbage, signs outside the range, or overflow.
[[nodiscard]] inline long parse_env_int(const char* name, const char* text, long min_value,
                                        long max_value) {
  if (text == nullptr || *text == '\0') {
    std::fprintf(stderr, "%s: empty value (expected an integer in [%ld, %ld])\n", name,
                 min_value, max_value);
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "%s: '%s' is not an integer\n", name, text);
    std::exit(2);
  }
  if (errno == ERANGE || v < min_value || v > max_value) {
    std::fprintf(stderr, "%s: %s out of range [%ld, %ld]\n", name, text, min_value, max_value);
    std::exit(2);
  }
  return v;
}

// getenv wrapper: `fallback` when the variable is unset. An *empty* set
// value is rejected like garbage (it is never what the user meant).
[[nodiscard]] inline long env_int_or(const char* name, long fallback, long min_value,
                                     long max_value) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  return parse_env_int(name, text, min_value, max_value);
}

// HG_WORKERS: intra-run worker threads for the superstep-sharded engine.
// Unset/0 = one partition on the calling thread. Parsed as strictly as
// HG_SEEDS/HG_THREADS: garbage or out-of-range terminates with exit code 2.
[[nodiscard]] inline std::size_t env_workers() {
  return static_cast<std::size_t>(env_int_or("HG_WORKERS", 0, 0, 4096));
}

// HG_PARTITIONS: logical partition count for the superstep-sharded engine.
// Unset/0 = auto (the deployment scales it with the population). Results are
// partition-count-invariant for any count >= 2; the knob exists so CI can
// prove exactly that byte-for-byte.
[[nodiscard]] inline std::uint32_t env_partitions() {
  return static_cast<std::uint32_t>(env_int_or("HG_PARTITIONS", 0, 0, 65536));
}

}  // namespace hg
