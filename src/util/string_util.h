// Small string helpers shared across subsystems.

#pragma once

#include <string>
#include <vector>

namespace fewner::util {

/// Splits on any run of the delimiter; no empty pieces are produced.
std::vector<std::string> Split(const std::string& s, char delim);

/// Lowercases ASCII characters.
std::string ToLower(const std::string& s);

/// Formats a double with the given number of decimal places.
std::string FormatDouble(double value, int decimals);

/// Left-pads (pad_left=true) or right-pads a string with spaces to `width`.
std::string Pad(const std::string& s, size_t width, bool pad_left);

}  // namespace fewner::util
