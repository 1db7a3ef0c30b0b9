// Status and StatusOr<T>: error propagation without exceptions.
//
// All fallible public APIs in this project return Status or StatusOr<T>.
// Error codes are a small fixed set modeled after common kernel error enums.

#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace sb {

enum class ErrorCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kUnavailable,
  kInternal,
  kUnimplemented,
  kTimeout,
  kAborted,
  kDataLoss,
};
// Human-readable name for an error code ("OK", "NOT_FOUND", ...), or
// "UNKNOWN" for a raw value that is not an ErrorCode.
constexpr std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case ErrorCode::kPermissionDenied:
      return "PERMISSION_DENIED";
    case ErrorCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case ErrorCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case ErrorCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case ErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ErrorCode::kInternal:
      return "INTERNAL";
    case ErrorCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case ErrorCode::kTimeout:
      return "TIMEOUT";
    case ErrorCode::kAborted:
      return "ABORTED";
    case ErrorCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

// The highest code: a raw value above it is not an ErrorCode.
inline constexpr ErrorCode kLastErrorCode = ErrorCode::kDataLoss;
// A code added after kLastErrorCode gets a name in ErrorCodeName (-Wswitch
// asks for one), and then this fails until kLastErrorCode moves with it.
static_assert(ErrorCodeName(static_cast<ErrorCode>(static_cast<uint8_t>(kLastErrorCode) + 1)) ==
                  "UNKNOWN",
              "kLastErrorCode must be the last ErrorCode");

// A success-or-error value carrying an optional message.
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code, std::string message = "")
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "NOT_FOUND: no such inode".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  ErrorCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg = "") {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg = "") { return Status(ErrorCode::kNotFound, std::move(msg)); }
inline Status AlreadyExists(std::string msg = "") {
  return Status(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Status PermissionDenied(std::string msg = "") {
  return Status(ErrorCode::kPermissionDenied, std::move(msg));
}
inline Status OutOfRange(std::string msg = "") {
  return Status(ErrorCode::kOutOfRange, std::move(msg));
}
inline Status ResourceExhausted(std::string msg = "") {
  return Status(ErrorCode::kResourceExhausted, std::move(msg));
}
inline Status FailedPrecondition(std::string msg = "") {
  return Status(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Status Unavailable(std::string msg = "") {
  return Status(ErrorCode::kUnavailable, std::move(msg));
}
inline Status Internal(std::string msg = "") { return Status(ErrorCode::kInternal, std::move(msg)); }
inline Status Unimplemented(std::string msg = "") {
  return Status(ErrorCode::kUnimplemented, std::move(msg));
}
inline Status TimeoutError(std::string msg = "") {
  return Status(ErrorCode::kTimeout, std::move(msg));
}
inline Status Aborted(std::string msg = "") { return Status(ErrorCode::kAborted, std::move(msg)); }
inline Status DataLoss(std::string msg = "") { return Status(ErrorCode::kDataLoss, std::move(msg)); }

// A value of type T or a Status explaining why there is none.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {}  // NOLINT(google-explicit-constructor)
  StatusOr(T value) : rep_(std::move(value)) {}         // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(rep_);
  }

  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

// Propagates a non-OK Status to the caller.
#define SB_RETURN_IF_ERROR(expr)        \
  do {                                  \
    ::sb::Status sb_status__ = (expr);  \
    if (!sb_status__.ok()) {            \
      return sb_status__;               \
    }                                   \
  } while (0)

#define SB_CONCAT_IMPL(a, b) a##b
#define SB_CONCAT(a, b) SB_CONCAT_IMPL(a, b)

// Assigns the value of a StatusOr expression or propagates its error.
#define SB_ASSIGN_OR_RETURN(lhs, expr)                             \
  auto SB_CONCAT(sb_statusor__, __LINE__) = (expr);                \
  if (!SB_CONCAT(sb_statusor__, __LINE__).ok()) {                  \
    return SB_CONCAT(sb_statusor__, __LINE__).status();            \
  }                                                                \
  lhs = std::move(SB_CONCAT(sb_statusor__, __LINE__)).value()

}  // namespace sb

#endif  // SRC_BASE_STATUS_H_
