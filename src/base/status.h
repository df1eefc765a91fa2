// Lightweight status / result types.
//
// The execution path of the simulator and the intermittent kernel never
// throws: a power failure is an expected event and is propagated as a status
// code, mirroring how a real MCU simply loses power. The language frontend
// (lexer/parser/validator) uses Status to carry diagnostics.
#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace artemis {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
};

// Human-readable name of a status code ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Invalid(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// Minimal StatusOr: either a value (status() is OK) or an error status.
// Only what the frontend needs; intentionally not a full absl::StatusOr
// clone.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}        // NOLINT(google-explicit-constructor)
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace artemis

#endif  // SRC_BASE_STATUS_H_
