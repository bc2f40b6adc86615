#pragma once

/// \file parse.h
/// Strict number parsing for command-line and case-line input: the whole
/// string must be the number, so a typo fails with a one-line message
/// instead of being truncated, wrapped or echoed as bare exception text.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace dex::support {

/// stoull that rejects what std::stoull silently accepts or reports badly:
/// negative input (wrapped to huge values), trailing garbage ("1e3"
/// parsing as 1), and non-numeric input (bare "stoull" exception text).
/// Throws std::invalid_argument.
inline std::uint64_t parse_u64(const std::string& v) try {
  std::size_t pos = 0;
  std::uint64_t out = 0;
  // Require a leading digit: stoull itself skips whitespace and accepts a
  // sign, which would let " -1" wrap to 2^64-1.
  if (!v.empty() && std::isdigit(static_cast<unsigned char>(v[0]))) {
    out = std::stoull(v, &pos);
  }
  if (pos != v.size() || v.empty()) throw std::invalid_argument(v);
  return out;
} catch (const std::exception&) {  // invalid_argument or out_of_range
  throw std::invalid_argument("expected a non-negative integer, got '" + v +
                              "'");
}

/// stod with the same strictness (rejects "0.5x", clean message for "abc").
inline double parse_double(const std::string& v) try {
  std::size_t pos = 0;
  const double out = v.empty() ? 0.0 : std::stod(v, &pos);
  if (pos != v.size() || v.empty()) throw std::invalid_argument(v);
  return out;
} catch (const std::exception&) {  // invalid_argument or out_of_range
  throw std::invalid_argument("expected a number, got '" + v + "'");
}

/// Positional argument `i` of an example or bench program, parsed by
/// parse_u64, or `fallback` when there are fewer arguments. A malformed
/// value prints "<program>: argument <i>: <message>" and exits 2.
inline std::uint64_t positional_u64(int argc, char** argv, int i,
                                    std::uint64_t fallback) {
  if (argc <= i) return fallback;
  try {
    return parse_u64(argv[i]);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: argument %d: %s\n", argv[0], i, e.what());
    std::exit(2);
  }
}

}  // namespace dex::support
