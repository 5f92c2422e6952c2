// Abortable sense-reversing barrier for ranks.
//
// Every collective in simmpi synchronizes through this barrier.  If any rank
// dies with an exception, the runtime flips the shared abort flag; ranks
// parked here observe it and throw AbortedError instead of deadlocking — so
// a failure in one rank surfaces as a clean test failure, not a hang.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "simmpi/fiber.hpp"

namespace dds::simmpi {

/// Thrown by ranks parked in a collective when another rank has failed.
class AbortedError : public Error {
 public:
  AbortedError() : Error("simmpi: collective aborted (a rank failed)") {}
};

/// Shared abort flag owned by the Runtime, observed by every wait point.
class AbortFlag {
 public:
  void raise() { raised_ = true; }
  void clear() { raised_ = false; }
  bool raised() const { return raised_; }

 private:
  bool raised_ = false;
};

class Barrier {
 public:
  Barrier(int parties, AbortFlag& abort, FiberScheduler& sched)
      : parties_(parties), abort_(&abort), sched_(&sched) {
    DDS_CHECK(parties > 0);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all parties arrive (or throws AbortedError on abort).
  /// The last arrival flips the generation and returns true without
  /// yielding, so it runs before any peer resumes; earlier ones yield to
  /// the scheduler until it flips or the abort flag rises, then return
  /// false.
  bool arrive_and_wait() {
    if (abort_->raised()) throw AbortedError();
    const std::uint64_t gen = generation_;
    if (++count_ == parties_) {
      count_ = 0;
      ++generation_;
      return true;
    }
    sched_->yield_until(
        [&] { return abort_->raised() || generation_ != gen; });
    if (generation_ == gen) {
      // Woken by abort before the barrier completed: withdraw this arrival
      // so the barrier stays consistent for the next run().
      --count_;
      throw AbortedError();
    }
    return false;
  }

  int parties() const { return parties_; }

 private:
  const int parties_;
  int count_ = 0;
  std::uint64_t generation_ = 0;
  AbortFlag* abort_;
  FiberScheduler* sched_;
};

}  // namespace dds::simmpi
