#include "util/string_util.h"

#include <cctype>
#include <cstdio>

namespace fewner::util {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (c == delim) {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string Pad(const std::string& s, size_t width, bool pad_left) {
  if (s.size() >= width) return s;
  std::string padding(width - s.size(), ' ');
  return pad_left ? padding + s : s + padding;
}

}  // namespace fewner::util
