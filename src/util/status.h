// Status / Result error-handling primitives, in the style of Arrow / RocksDB.
//
// Library code reports recoverable failures through Status (or Result<T> when a
// value is produced).  FEWNER_CHECK is reserved for programmer errors
// (precondition violations) and aborts.

#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace fewner::util {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kInternal,
};

/// Returns a human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation that can fail without producing a value.
///
/// A Status is cheap to copy when OK (no allocation) and carries a message
/// otherwise.  Use the static factories (`Status::InvalidArgument(...)`) to
/// construct errors.
class Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg) : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Outcome of an operation that produces a T on success.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}        // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) { // NOLINT(google-explicit-constructor)
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status without a value");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

 private:
  Status status_;
  std::optional<T> value_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* file, int line, const std::string& msg);
}  // namespace internal

}  // namespace fewner::util

/// Aborts with a diagnostic when `cond` is false.  For programmer errors only.
#define FEWNER_CHECK(cond, msg)                                                       \
  do {                                                                                \
    if (!(cond)) {                                                                    \
      std::ostringstream fewner_check_oss_;                                           \
      fewner_check_oss_ << "FEWNER_CHECK failed: " #cond " — " << msg;                \
      ::fewner::util::internal::CheckFailed(__FILE__, __LINE__,                       \
                                            fewner_check_oss_.str());                 \
    }                                                                                 \
  } while (0)

/// Propagates a non-OK Status to the caller.
#define FEWNER_RETURN_IF_ERROR(expr)                 \
  do {                                               \
    ::fewner::util::Status fewner_status_ = (expr);  \
    if (!fewner_status_.ok()) return fewner_status_; \
  } while (0)
