#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "simmpi/barrier.hpp"

// Sanitizer fiber hooks: without them ASan misattributes every fiber frame
// to the scheduler's stack (false stack-buffer-overflow reports).
// Feature-detect both compilers' spellings; the hooks are declared in the
// sanitizer interface header that ships with any toolchain able to build
// with ASan enabled.
#if defined(__SANITIZE_ADDRESS__)
#define DDS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DDS_FIBER_ASAN 1
#endif
#endif
#ifndef DDS_FIBER_ASAN
#define DDS_FIBER_ASAN 0
#endif

#if DDS_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace dds::simmpi {

namespace {

/// The scheduler whose fibers are running on this thread; read by the
/// makecontext trampoline (which cannot take a pointer argument portably:
/// makecontext passes ints).  Saved/restored around run() so a rank body
/// that drives a nested Runtime still resolves its own scheduler.
thread_local FiberScheduler* g_active_scheduler = nullptr;

/// Canary words between the guard page and the usable stack: a frame large
/// enough to leap the whole guard page still lands here first.
constexpr std::uint64_t kCanaryWord = 0xD5F1BE2DCAFEF00Dull;
constexpr std::size_t kCanaryBytes = 128;

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

}  // namespace

FiberScheduler::FiberScheduler(int nranks, AbortFlag& abort)
    : abort_(&abort), stack_bytes_(stack_bytes_from_env()), nranks_(nranks) {
  DDS_CHECK_MSG(nranks > 0, "simmpi needs at least one rank");
}

FiberScheduler::~FiberScheduler() {
  // Normal runs release every stack before returning; this only fires when
  // run() abandoned fibers on the fatal-deadlock path.
  for (auto& f : fibers_) release_stack(f);
}

std::size_t FiberScheduler::stack_bytes_from_env() {
  // ASan builds need headroom: redzones around every stack object roughly
  // quadruple depth.
#if DDS_FIBER_ASAN
  std::size_t kb = 4096;
#else
  std::size_t kb = 1024;
#endif
  if (const char* env = std::getenv("DDS_FIBER_STACK_KB")) {
    // Digits only: strtoull would accept (and negate) a sign.  The ceiling
    // keeps kb * 1024 from wrapping to a 0-byte stack.
    char* end = nullptr;
    const bool digits = std::isdigit(static_cast<unsigned char>(*env)) != 0;
    const unsigned long long v = digits ? std::strtoull(env, &end, 10) : 0;
    if (v == 0 || *end != '\0' || v > kMaxStackKb) {
      throw ConfigError("DDS_FIBER_STACK_KB must be an integer in [1, " +
                        std::to_string(kMaxStackKb) + "] (KiB), got '" +
                        std::string(env) + "'");
    }
    kb = static_cast<std::size_t>(v);
  }
  kb = std::max<std::size_t>(kb, 64);
  return round_up_pages(kb * 1024);
}

void FiberScheduler::allocate_stack(Fiber& f) {
  const std::size_t page = page_size();
  f.map_bytes = page + kCanaryBytes + stack_bytes_;
  void* base = mmap(nullptr, f.map_bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    throw IoError("fiber stack mmap failed: " +
                  std::string(std::strerror(errno)));
  }
  // Lowest page is the guard: stacks grow down, so a plain overflow faults
  // here (SIGSEGV with a clean report) instead of scribbling on whatever
  // mapping happens to sit below.
  if (mprotect(base, page, PROT_NONE) != 0) {
    munmap(base, f.map_bytes);
    throw IoError("fiber stack guard mprotect failed: " +
                  std::string(std::strerror(errno)));
  }
  f.map_base = static_cast<std::byte*>(base);
  f.stack_lo = f.map_base + page + kCanaryBytes;
  f.usable_bytes = stack_bytes_;
  write_canary(f);
}

void FiberScheduler::release_stack(Fiber& f) {
  if (f.map_base != nullptr) munmap(f.map_base, f.map_bytes);
  f.map_base = nullptr;
  f.stack_lo = nullptr;
  f.map_bytes = 0;
  f.usable_bytes = 0;
}

void FiberScheduler::write_canary(Fiber& f) {
  auto* words = reinterpret_cast<std::uint64_t*>(f.map_base + page_size());
  for (std::size_t i = 0; i < kCanaryBytes / sizeof(std::uint64_t); ++i) {
    words[i] = kCanaryWord;
  }
}

void FiberScheduler::check_canary(const Fiber& f) const {
  if (f.map_base == nullptr) return;
  const auto* words =
      reinterpret_cast<const std::uint64_t*>(f.map_base + page_size());
  for (std::size_t i = 0; i < kCanaryBytes / sizeof(std::uint64_t); ++i) {
    if (words[i] == kCanaryWord) continue;
    // The neighbor stack may already be corrupt: abort immediately rather
    // than throw through (and further unwind) a smashed stack.
    std::fprintf(stderr,
                 "simmpi: FATAL: fiber stack canary smashed (rank %d, stack "
                 "%zu KB) — deep recursion overflowed the fiber stack; raise "
                 "DDS_FIBER_STACK_KB\n",
                 f.rank, f.usable_bytes / 1024);
    std::abort();
  }
}

void FiberScheduler::trampoline() { g_active_scheduler->fiber_main(); }

void FiberScheduler::fiber_main() {
  Fiber& f = fibers_[static_cast<std::size_t>(running_)];
#if DDS_FIBER_ASAN
  // First entry on this stack: no fake stack to restore (nullptr), and the
  // out-params tell us the stack we came from — the scheduler's — which a
  // departing fiber must announce as the switch target later.
  __sanitizer_finish_switch_fiber(nullptr, &main_stack_bottom_,
                                  &main_stack_size_);
#endif
  // The body must not leak exceptions (Runtime's rank wrapper catches
  // everything): an exception crossing swapcontext is undefined behaviour.
  (*body_)(f.rank);
  f.state = State::Done;
#if DDS_FIBER_ASAN
  // nullptr fake-stack slot: this fiber is terminating, free its fake stack.
  __sanitizer_start_switch_fiber(nullptr, main_stack_bottom_,
                                 main_stack_size_);
#endif
  setcontext(&main_ctx_);
  // Unreachable: the scheduler context never switches back into a Done
  // fiber.
}

void FiberScheduler::resume(int idx) {
  Fiber& f = fibers_[static_cast<std::size_t>(idx)];
  running_ = idx;
  ++switches_;
#if DDS_FIBER_ASAN
  __sanitizer_start_switch_fiber(&main_asan_fake_stack_, f.stack_lo,
                                 f.usable_bytes);
#endif
  swapcontext(&main_ctx_, &f.ctx);
#if DDS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(main_asan_fake_stack_, nullptr, nullptr);
#endif
  running_ = -1;
}

void FiberScheduler::suspend_running() {
  Fiber& f = fibers_[static_cast<std::size_t>(running_)];
#if DDS_FIBER_ASAN
  __sanitizer_start_switch_fiber(&f.asan_fake_stack, main_stack_bottom_,
                                 main_stack_size_);
#endif
  swapcontext(&f.ctx, &main_ctx_);
#if DDS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(f.asan_fake_stack, nullptr, nullptr);
#endif
}

void FiberScheduler::yield_until_pred(PredicateRef pred) {
  // An already-true predicate must not yield: that is what keeps
  // uncontended waits out of the operation order.
  if (pred()) return;
  DDS_CHECK_MSG(running_ >= 0,
                "yield_until outside a fiber (no rank is running)");
  Fiber& f = fibers_[static_cast<std::size_t>(running_)];
  f.pred = pred;
  f.state = State::Parked;
  suspend_running();
  // The scheduler resumes a parked fiber only after observing pred() true,
  // and nothing runs between that evaluation and this resume.
  f.pred = PredicateRef();
  f.state = State::Ready;
}

void FiberScheduler::run(const std::function<void(int)>& body) {
  DDS_CHECK_MSG(fibers_.empty() && running_ == -1,
                "FiberScheduler::run is not reentrant");
  body_ = &body;
  // Size once, never grow: a filled ucontext_t holds a pointer into itself
  // (glibc keeps FPU state inline), so Fiber objects must never relocate
  // while their contexts are live.
  fibers_.resize(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.rank = r;
    allocate_stack(f);
    DDS_CHECK_MSG(getcontext(&f.ctx) == 0, "getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack_lo;
    f.ctx.uc_stack.ss_size = f.usable_bytes;
    f.ctx.uc_link = nullptr;
    makecontext(&f.ctx, &FiberScheduler::trampoline, 0);
  }
  FiberScheduler* const prev_active = g_active_scheduler;
  g_active_scheduler = this;

  // Scheduling loop: scan ranks cyclically, starting just past the rank
  // that ran last (rank 0 at first), and run the first one that is ready
  // or parked with a true predicate.  Predicate evaluation is side-effect
  // free, so a parked rank with a false predicate is simply passed over.
  int current = 0;
  int live = nranks_;
  bool deadlocked = false;
  while (live > 0) {
    int next = -1;
    for (int step = 0; step < nranks_; ++step) {
      const int r = (current + step) % nranks_;
      Fiber& f = fibers_[static_cast<std::size_t>(r)];
      if (f.state == State::Done) continue;
      if (f.state == State::Parked && !f.pred()) continue;
      next = r;
      break;
    }
    if (next < 0) {
      // Every live fiber is parked on a false predicate: cooperative
      // deadlock.  Raise the abort flag — the simmpi wait predicates all
      // observe it — and rescan so the parked fibers wake, unwind with
      // AbortedError, and release their stacks; then report below.  If the
      // predicates ignore the flag (a raw user-level yield_until), the
      // second failed scan gives up and abandons the fibers un-unwound.
      if (deadlocked) break;
      deadlocked = true;
      abort_->raise();
      continue;
    }
    resume(next);
    check_canary(fibers_[static_cast<std::size_t>(next)]);
    if (fibers_[static_cast<std::size_t>(next)].state == State::Done) --live;
    current = (next + 1) % nranks_;
  }

  g_active_scheduler = prev_active;
  for (auto& f : fibers_) release_stack(f);
  fibers_.clear();
  body_ = nullptr;
  if (deadlocked) {
    throw InternalError(
        "FiberScheduler: all ranks parked (cooperative deadlock)");
  }
}

}  // namespace dds::simmpi
