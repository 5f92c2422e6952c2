// FiberScheduler: the simmpi execution engine.
//
// Every simulated rank is a stackful ucontext fiber inside ONE OS thread —
// the thread that calls Runtime::run.  The scheduler resumes exactly one
// fiber at a time, run-to-next-blocking-op, in cyclic rank order, so the
// global interleaving of every virtual-time event (BusyResource buckets,
// the FS page cache, window locks) is a pure function of the program:
// identical on every run, on any machine, at any ctest parallelism.  A
// fiber switch is a userspace register swap, and N ranks cost N small
// stacks, which is what makes simulating the paper's full 1536-GPU width
// practical in one process.
//
// Contract for rank code:
//  * The library starts no OS threads.  Shared simulator state (clocks,
//    BusyResources, page caches, mailboxes, window lock counters) is only
//    ever touched by the running fiber, so it needs no locks or atomics.
//  * A rank gives up the CPU only inside yield_until(), which simmpi calls
//    at its three wait points: Barrier, Comm::recv_bytes and Window::lock.
//  * Predicates passed to yield_until() are evaluated on the scheduler
//    context while the yielding rank is suspended, and must depend only on
//    state mutated by rank code plus the abort flag, so their truth value
//    is deterministic too.
//
// Stack safety: each fiber stack is an mmap'd region with a PROT_NONE guard
// page below it (overflow faults loudly instead of scribbling on a neighbor
// fiber's stack) plus a canary word pattern just above the guard, checked at
// every suspend — a frame large enough to leap the guard page still trips
// the canary.  Size is configurable via DDS_FIBER_STACK_KB (default 1024,
// larger under ASan, minimum 64, maximum 1 GiB, rounded up to whole pages).
//
// Sanitizer support: stack switches are announced to ASan via
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber, so
// fiber frames get correct fake-stack bookkeeping instead of false
// positives.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace dds::simmpi {

class AbortFlag;

/// Non-owning reference to a bool() callable.  yield_until predicates are
/// stack-local lambdas in the *yielding* rank's frame; the scheduler may
/// re-evaluate them after the rank suspended, which is safe because a
/// suspended fiber's frames stay alive until resume.
class PredicateRef {
 public:
  PredicateRef() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, PredicateRef>)
  PredicateRef(const F& fn)  // NOLINT(google-explicit-constructor)
      : obj_(&fn), call_([](const void* o) {
          return (*static_cast<const F*>(o))();
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  bool operator()() const { return call_(obj_); }

 private:
  const void* obj_ = nullptr;
  bool (*call_)(const void*) = nullptr;
};

class FiberScheduler {
 public:
  /// `abort` lets a detected cooperative deadlock drain parked fibers —
  /// their wait predicates observe the raised flag, they unwind with
  /// AbortedError, and run() then reports the deadlock — instead of
  /// abandoning live stacks.
  FiberScheduler(int nranks, AbortFlag& abort);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Cooperative wait: while `pred()` is false, hands execution to the
  /// next runnable rank and suspends until the predicate turns true.  A
  /// predicate that is already true never yields (and therefore never
  /// perturbs the deterministic operation order).
  template <typename Pred>
  void yield_until(Pred&& pred) {
    yield_until_pred(PredicateRef(pred));
  }

  /// Spawns one fiber per rank running `body(rank)` and drives them all to
  /// completion on the calling thread.  `body` must not leak exceptions
  /// (the Runtime's rank wrapper catches them); a cooperative deadlock —
  /// every live fiber parked on a false predicate — raises the abort flag,
  /// drains the fibers, and throws InternalError.
  void run(const std::function<void(int)>& body);

  /// Total fiber context switches performed (diagnostics / bench output).
  std::uint64_t switch_count() const { return switches_; }

  /// Per-fiber usable stack size in bytes, resolved from DDS_FIBER_STACK_KB
  /// at construction.
  std::size_t stack_bytes() const { return stack_bytes_; }

  /// Parses DDS_FIBER_STACK_KB (a plain decimal count of KiB, clamped to
  /// >= 64 KB, rounded up to whole pages; a sign, junk, 0 or more than
  /// kMaxStackKb is a ConfigError).  The default is 1 MB, raised under ASan
  /// whose redzones inflate stack usage.
  static std::size_t stack_bytes_from_env();

  /// Per-fiber stack ceiling (1 GiB), far above any real need; it keeps
  /// the byte count from wrapping.
  static constexpr std::size_t kMaxStackKb = std::size_t{1} << 20;

 private:
  enum class State : std::uint8_t { Ready, Parked, Done };

  struct Fiber {
    ucontext_t ctx{};
    std::byte* map_base = nullptr;   ///< mmap base (guard page included)
    std::size_t map_bytes = 0;       ///< full mapping length
    std::byte* stack_lo = nullptr;   ///< lowest usable stack address
    std::size_t usable_bytes = 0;    ///< stack_lo .. stack_lo+usable
    State state = State::Ready;
    PredicateRef pred;               ///< valid only while Parked
    int rank = -1;
    void* asan_fake_stack = nullptr;
  };

  void yield_until_pred(PredicateRef pred);

  static void trampoline();
  void fiber_main();

  void allocate_stack(Fiber& f);
  void release_stack(Fiber& f);
  void write_canary(Fiber& f);
  void check_canary(const Fiber& f) const;

  /// Resumes fiber `idx` from the scheduler context; returns when the
  /// fiber suspends (parks) or finishes.
  void resume(int idx);
  /// Suspends the running fiber back to the scheduler context.
  void suspend_running();

  AbortFlag* abort_;
  std::vector<Fiber> fibers_;
  const std::function<void(int)>* body_ = nullptr;
  ucontext_t main_ctx_{};
  void* main_asan_fake_stack_ = nullptr;
  const void* main_stack_bottom_ = nullptr;
  std::size_t main_stack_size_ = 0;
  std::size_t stack_bytes_ = 0;
  std::uint64_t switches_ = 0;
  int nranks_ = 0;
  int running_ = -1;  ///< fiber index on the CPU (-1 = scheduler context)
};

}  // namespace dds::simmpi
