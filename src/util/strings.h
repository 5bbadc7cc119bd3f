// String helpers shared across modules.
#pragma once

#include <string>
#include <vector>

namespace itree {

/// Joins `parts` with `separator`.
std::string join(const std::vector<std::string>& parts,
                 const std::string& separator);

/// Formats a double compactly: fixed-point, trailing zeros trimmed.
std::string compact_number(double value, int max_decimals = 6);

/// The shortest decimal text that reads back as exactly `value`
/// (std::to_chars): a nonzero value however small never prints as 0.
std::string shortest_number(double value);

/// "yes"/"no" rendering for property matrices.
std::string yes_no(bool value);

/// Bit-exact `%a` hex-float rendering, comma-separated: the canonical
/// pre-digest form for reward vectors (loadgen, benches, `itree
/// recover` must all agree byte-for-byte).
std::string hex_doubles(const std::vector<double>& values);

}  // namespace itree
