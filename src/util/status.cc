#include "util/status.h"

#include <cstdlib>
#include <iostream>

namespace fewner::util {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

namespace internal {

void CheckFailed(const char* file, int line, const std::string& msg) {
  std::cerr << file << ":" << line << ": " << msg << std::endl;
  std::abort();
}

}  // namespace internal
}  // namespace fewner::util
