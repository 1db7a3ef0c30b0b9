#include "src/mk/notification.h"

#include "src/mk/kernel.h"

namespace mk {
namespace {

constexpr uint64_t kSignalLogicCycles = 60;  // Badge OR + waiter check.
constexpr uint64_t kWakeupCycles = 400;      // Scheduler wakeup on the waiter.

}  // namespace

sb::Status Notification::Signal(hw::Core& core, uint64_t badge) {
  if (badge == 0) {
    return sb::InvalidArgument("badge must be nonzero");
  }
  kernel_->SyscallEnter(core);
  core.AdvanceCycles(kSignalLogicCycles);
  badges_ |= badge;
  last_signal_time_ = core.cycles();
  ++signals_;
  kernel_->SyscallExit(core);
  return sb::OkStatus();
}

sb::StatusOr<uint64_t> Notification::Wait(hw::Core& core) {
  kernel_->SyscallEnter(core);
  core.AdvanceCycles(kSignalLogicCycles);
  ++waits_;
  if (badges_ == 0) {
    // Block until the most recent signal's virtual time (a future signal in
    // virtual time is modeled by the caller ordering; FIFO arbitration of
    // multi-waiter scenarios lives in sim::FifoResource).
    if (last_signal_time_ <= core.cycles()) {
      kernel_->SyscallExit(core);
      return sb::Unavailable("no signal pending and none in flight");
    }
  }
  if (last_signal_time_ > core.cycles()) {
    core.SyncClockTo(last_signal_time_);
  }
  core.AdvanceCycles(kWakeupCycles);
  const uint64_t collected = badges_;
  badges_ = 0;
  kernel_->SyscallExit(core);
  if (collected == 0) {
    return sb::Unavailable("no signal pending");
  }
  return collected;
}

sb::StatusOr<uint64_t> Notification::Poll(hw::Core& core) {
  kernel_->SyscallEnter(core);
  core.AdvanceCycles(kSignalLogicCycles);
  const uint64_t collected = badges_;
  badges_ = 0;
  kernel_->SyscallExit(core);
  return collected;
}

}  // namespace mk
