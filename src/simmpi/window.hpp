// One-sided RMA windows (the MPI_Win_* subset DDStore relies on).
//
// A Window is created collectively over a communicator; each rank exposes a
// region of its own memory.  Remote ranks read it with lock(Shared) + get +
// unlock — the passive-target pattern the paper selects ("MPI_Win_lock with
// MPI_LOCK_SHARED ... as a lightweight set of contention-avoiding methods",
// §3.2) — or synchronize epochs with fence().  get/put move real bytes via
// memcpy under a per-region reader/writer lock (detail::RegionLock); the
// NetworkModel charges virtual time (software overhead + wire + queueing at
// the target node's NIC).
//
// The window is a *faithful* data mover: fault injection lives one layer up,
// at the DDStore transport seam (core/fetch/transport.hpp), which decides a
// transfer's fate before delegating the clean byte movement here.
//
// Deviations from MPI semantics, by design:
//  * lock() blocks immediately instead of deferring to the first access;
//    cross-rank exclusive lock cycles can therefore deadlock (as can
//    misordered MPI passive-target code).  The wait is a scheduler yield,
//    so such a cycle trips the loud cooperative-deadlock invariant instead
//    of hanging.
//  * Window lifetime is reference counted; free() is a collective no-op
//    provided for symmetry with MPI_Win_free.
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "simmpi/runtime.hpp"

namespace dds::simmpi {

enum class LockType { Shared, Exclusive };

namespace detail {

/// Reader/writer lock on one exposed region.  A blocked rank parks on the
/// counters via FiberScheduler::yield_until; the counters are only touched
/// by the running fiber, so they need no atomics.  An uncontended
/// acquisition sees its predicate true immediately and never yields.
struct RegionLock {
  int readers = 0;
  bool writer = false;
};

struct WindowShared {
  explicit WindowShared(std::size_t n) : regions(n), keepalives(n), locks(n) {}
  std::vector<MutableByteSpan> regions;    ///< indexed by comm rank
  /// Optional shared ownership of each region's backing storage: keeps a
  /// rank's buffer alive until the *last* member's Window handle dies, so a
  /// rank finishing early cannot free memory peers still read (the
  /// in-process analogue of MPI_Win_free being collective).
  std::vector<std::shared_ptr<const void>> keepalives;
  std::vector<RegionLock> locks;           ///< per exposed region
};

}  // namespace detail

class Window {
 public:
  /// Collective: every rank of `comm` must call this with its local region.
  /// Pass `keepalive` owning the region's storage to make lifetime safe
  /// against members destroying their Window at different times; with a
  /// null keepalive the caller must keep the buffer alive until every
  /// member has dropped its handle (as with a real MPI window).
  Window(Comm& comm, MutableByteSpan local,
         std::shared_ptr<const void> keepalive = nullptr);

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
  Window(Window&&) = default;
  Window& operator=(Window&&) = default;
  ~Window() = default;

  /// Begins a passive-target access epoch on `target`'s region.
  void lock(int target, LockType type);

  /// Ends the access epoch started by lock().
  void unlock(int target);

  /// Reads dst.size() bytes from `target`'s region at `offset`.
  /// Requires an active lock epoch on `target`.
  ///
  /// `charge_bytes` overrides the transfer size used for *timing* (0 =>
  /// dst.size()): in scaled-down runs DDStore moves small real payloads but
  /// charges the paper-scale nominal sample size, so queueing and bandwidth
  /// behave as if the full dataset were stored.  `overhead_scale` discounts
  /// the per-get software overhead when a lock epoch is shared by a batch.
  void get(MutableByteSpan dst, int target, std::size_t offset,
           std::uint64_t charge_bytes = 0, double overhead_scale = 1.0);

  /// Timing-decoupled get for hedged transfers: moves the bytes now (same
  /// bounds/lock checks as get()) and charges the target's NIC, but the
  /// transfer is modeled as *issued at* virtual time `start` and the
  /// completion time is RETURNED instead of advancing the caller's clock.
  /// A hedging caller computes both legs' completions this way, then
  /// commits min(primary, backup) — the clock is monotonic, so the winner
  /// must be known before any advance.  Requires an active lock epoch.
  double get_at(MutableByteSpan dst, int target, std::size_t offset,
                double start, std::uint64_t charge_bytes = 0,
                double overhead_scale = 1.0);

  /// One disjoint range of a vectored get (see getv).
  struct GetSegment {
    std::size_t offset = 0;  ///< into the target's exposed region
    MutableByteSpan dst;     ///< receives offset..offset+dst.size()
  };

  /// Vectored read: fetches every segment from `target`'s region in ONE
  /// RMA transaction (the MPI analogue is an MPI_Get with an indexed
  /// datatype).  Requires an active lock epoch on `target`.  Timing goes
  /// through NetworkModel::rma_getv_time — the per-transfer software
  /// overhead is charged once, the wire cost sums the segment bytes.
  /// `charge_bytes` overrides the *total* size used for timing (0 => sum of
  /// segment sizes), mirroring get()'s nominal-byte accounting.
  void getv(std::span<const GetSegment> segments, int target,
            std::uint64_t charge_bytes = 0, double overhead_scale = 1.0);

  /// Writes src into `target`'s region at `offset` (exclusive lock needed).
  void put(ByteSpan src, int target, std::size_t offset);

  /// Element-wise += of doubles into `target`'s region (exclusive lock).
  void accumulate_add(std::span<const double> src, int target,
                      std::size_t offset);

  /// Collective epoch boundary; reconciles all member clocks (MPI_Win_fence).
  void fence();

  /// Collective release (MPI_Win_free); the object stays valid but empty.
  void free();

  std::size_t size_of(int target) const {
    return shared_->regions.at(static_cast<std::size_t>(target)).size();
  }
  /// Address of a target's exposed region (diagnostics/tests only).
  const void* region_data(int target) const {
    return shared_->regions.at(static_cast<std::size_t>(target)).data();
  }
  int comm_rank() const { return comm_.rank(); }
  int comm_size() const { return comm_.size(); }

 private:
  enum class HeldLock : std::uint8_t { None = 0, Shared = 1, Exclusive = 2 };

  void check_bounds(int target, std::size_t offset, std::size_t len) const;

  Comm comm_;
  std::shared_ptr<detail::WindowShared> shared_;
  std::vector<HeldLock> held_;  ///< this rank's epoch state per target
};

}  // namespace dds::simmpi
