// Virtual time primitives.
//
// Every rank in the simulated runtime owns a VirtualClock; every simulated
// operation (RMA get, filesystem read, GPU kernel) advances it by a cost
// from the models in this module.  Shared hardware (a node's NIC port, the
// filesystem metadata server) is a BusyResource: operations serialize at the
// resource, so hot spots queue and idle resources pipeline.  That queueing
// is the effect DDStore's replication width is designed to relieve, so it
// must emerge from the model rather than be scripted.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace dds::model {

/// Per-rank simulated wall clock, in seconds.
class VirtualClock {
 public:
  double now() const { return now_; }

  void advance(double dt) {
    DDS_CHECK_MSG(dt >= 0.0, "clock cannot run backwards");
    now_ += dt;
  }

  /// Moves the clock forward to `t` (no-op if already past it).
  void advance_to(double t) {
    if (t > now_) now_ = t;
  }

  void reset() { now_ = 0.0; }

 private:
  double now_ = 0.0;
};

/// A shared hardware resource (NIC port, metadata server, FS data path).
///
/// The model is *bucketed utilization*: virtual time is divided into
/// fixed-width buckets; every operation deposits its service duration into
/// the bucket(s) covering its ready time, and its queueing delay is the
/// occupancy already present in its own bucket plus any backlog spilling
/// over from the preceding buckets.  Properties:
///
///  * An idle resource adds zero delay.
///  * Requests that overlap in *virtual* time contend, no matter which
///    order the ranks happen to execute in host time — this
///    order-insensitivity is essential because the scheduler runs ranks
///    one at a time, run-to-next-blocking-op.
///  * Under closed-loop saturation, per-op latency degrades toward
///    (concurrent clients) x (service time), the M/D/1-ish behaviour that
///    makes PFF/CFF flatten at scale in the paper's Fig. 8.
///
/// Occupancy longer than the lookback window (kCarryLookback buckets) is
/// truncated, so single operations must be shorter than a bucket for exact
/// serialization — true of every modelled op (microseconds vs the 0.5 ms
/// bucket).  Buckets recycle after kSlots * bucket seconds (~2 s), which
/// exceeds the bounded clock skew between ranks within a training step.
class BusyResource {
 public:
  explicit BusyResource(double bucket_seconds = 0.5e-3)
      : bucket_(bucket_seconds), slots_(kSlots) {
    DDS_CHECK(bucket_seconds > 0.0);
  }

  BusyResource(BusyResource&&) noexcept = default;
  BusyResource(const BusyResource&) = delete;
  BusyResource& operator=(const BusyResource&) = delete;

  /// Registers an operation ready at `ready` needing `duration` seconds of
  /// service; returns its completion time (ready + queueing + duration).
  double acquire(double ready, double duration) {
    DDS_CHECK(duration >= 0.0);
    DDS_CHECK(ready >= 0.0);
    total_work_ += duration;
    const std::int64_t b0 = static_cast<std::int64_t>(ready / bucket_);

    // Backlog spilling forward from the preceding buckets.
    double carry = 0.0;
    for (int k = kCarryLookback; k >= 1; --k) {
      carry = std::max(0.0, carry + occupancy_of(b0 - k) - bucket_);
    }
    // Work already queued in our own bucket serves ahead of us.
    const double wait = carry + occupancy_of(b0);

    // Deposit our service time, spreading long operations forward.
    double remaining = duration;
    std::int64_t b = b0;
    while (remaining > 0.0) {
      const double add = std::min(remaining, bucket_);
      deposit(b, add);
      remaining -= add;
      ++b;
    }
    return ready + wait + duration;
  }

  /// Total service time ever deposited (for conservation checks in tests).
  double total_work() const { return total_work_; }

  void reset() {
    for (auto& s : slots_) s = Slot{};
    total_work_ = 0.0;
  }

 private:
  struct Slot {
    std::int64_t index = -1;  ///< absolute bucket number, -1 = empty
    double occupancy = 0.0;
  };

  static constexpr int kSlots = 4096;
  static constexpr int kCarryLookback = 8;

  double occupancy_of(std::int64_t bucket) const {
    if (bucket < 0) return 0.0;
    const Slot& s = slots_[static_cast<std::size_t>(bucket % kSlots)];
    return s.index == bucket ? s.occupancy : 0.0;
  }

  void deposit(std::int64_t bucket, double amount) {
    Slot& s = slots_[static_cast<std::size_t>(bucket % kSlots)];
    if (s.index != bucket) {
      // Recycle the slot: anything it held is > kSlots buckets old.
      s.index = bucket;
      s.occupancy = 0.0;
    }
    s.occupancy += amount;
  }

  double bucket_;
  std::vector<Slot> slots_;
  double total_work_ = 0.0;
};

}  // namespace dds::model
