#include "server/request.hpp"

namespace jitise::server {

const char* state_name(RequestState state) noexcept {
  switch (state) {
    case RequestState::Queued: return "queued";
    case RequestState::Running: return "running";
    case RequestState::Done: return "done";
    case RequestState::Failed: return "failed";
    case RequestState::Cancelled: return "cancelled";
    case RequestState::Expired: return "expired";
    case RequestState::Rejected: return "rejected";
  }
  return "?";
}

const char* trigger_name(Trigger trigger) noexcept {
  switch (trigger) {
    case Trigger::Client: return "client";
    case Trigger::Drift: return "drift";
  }
  return "?";
}

std::uint64_t Ticket::id() const {
  if (!state_) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->outcome.id;
}

RequestState Ticket::state() const {
  if (!state_) return RequestState::Rejected;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->outcome.state;
}

const RequestOutcome& Ticket::wait() const& {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->terminal; });
  return state_->outcome;
}

RequestOutcome Ticket::wait() && {
  // A copy, not a move: other tickets (and the server) may share the state.
  return std::as_const(*this).wait();
}

std::optional<RequestOutcome> Ticket::poll() const {
  if (!state_) return std::nullopt;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->terminal) return std::nullopt;
  return state_->outcome;
}

void Ticket::cancel() const {
  if (state_) state_->cancel.cancel();
}

}  // namespace jitise::server
