// Cooperative cancellation with optional deadlines.
//
// A CancellationSource owns the cancel state; CancellationTokens are cheap
// shared handles that long-running work polls at stage boundaries. Tokens
// never interrupt anything by force — the polled code decides *where* it is
// safe to stop (the specialization pipeline checks only between stages and
// between serial-tail candidates, never inside a cache or journal mutation,
// so a cancelled request can report partial progress but can never tear
// shared state).
//
// Deadlines are absolute steady_clock instants armed on the source; a token
// whose deadline has passed reports cancelled with reason DeadlineExpired
// without anyone having called cancel().
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace jitise::support {

enum class CancelReason : std::uint8_t { None, Cancelled, DeadlineExpired };

[[nodiscard]] constexpr const char* cancel_reason_name(
    CancelReason reason) noexcept {
  switch (reason) {
    case CancelReason::None: return "none";
    case CancelReason::Cancelled: return "cancelled";
    case CancelReason::DeadlineExpired: return "deadline expired";
  }
  return "?";
}

/// Thrown from a cancellation check point. Work unwinds to whoever owns the
/// request (the server session), which reports partial progress.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(std::string("request ") +
                           cancel_reason_name(reason)),
        reason_(reason) {}

  [[nodiscard]] CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

namespace detail {
struct CancelState {
  std::atomic<bool> cancelled{false};
  /// Deadline as steady_clock ticks since epoch; 0 = no deadline. Stored as
  /// a raw rep so the flag and deadline are both lock-free atomics.
  std::atomic<std::chrono::steady_clock::duration::rep> deadline{0};
};
}  // namespace detail

/// Shared, copyable poll handle. A default-constructed token never cancels,
/// so code taking a token by value needs no null checks.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// Why the token is cancelled right now (None when it is not). An explicit
  /// cancel() wins over a passed deadline when both apply.
  [[nodiscard]] CancelReason reason() const noexcept {
    if (!state_) return CancelReason::None;
    if (state_->cancelled.load(std::memory_order_acquire))
      return CancelReason::Cancelled;
    const auto rep = state_->deadline.load(std::memory_order_acquire);
    if (rep != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >= rep)
      return CancelReason::DeadlineExpired;
    return CancelReason::None;
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return reason() != CancelReason::None;
  }

  /// The stage-boundary check: throws CancelledError when cancelled.
  void check() const {
    const CancelReason r = reason();
    if (r != CancelReason::None) throw CancelledError(r);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<detail::CancelState>()) {}

  [[nodiscard]] CancellationToken token() const noexcept {
    return CancellationToken(state_);
  }

  void cancel() noexcept {
    state_->cancelled.store(true, std::memory_order_release);
  }

  /// Arms (or rearms) an absolute deadline; tokens report DeadlineExpired
  /// once it passes.
  void set_deadline(std::chrono::steady_clock::time_point at) noexcept {
    state_->deadline.store(at.time_since_epoch().count(),
                           std::memory_order_release);
  }

  [[nodiscard]] bool cancelled() const noexcept { return token().cancelled(); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace jitise::support
