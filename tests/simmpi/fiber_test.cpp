// Fiber engine tests: bit-equal same-seed replay at 256 ranks, cooperative
// yield correctness for every blocking op (barrier, two-sided recv, window
// lock epochs), abort propagation, loud deadlock detection, and the
// DDS_FIBER_STACK_KB / guard-page overflow contract.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/machine.hpp"
#include "simmpi/fiber.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/window.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DDS_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DDS_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef DDS_TEST_UNDER_SANITIZER
#define DDS_TEST_UNDER_SANITIZER 0
#endif

namespace dds::simmpi {
namespace {

/// Scoped environment override restoring the previous value on exit, so
/// tests that steer DDS_FIBER_STACK_KB compose with whatever environment
/// the suite itself runs under.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Mixed workload touching every cooperative wait point: collectives
/// (barrier-backed), a parity-ordered ring of two-sided sends/recvs, and a
/// window epoch with shared reads plus exclusively-locked accumulates.
/// Returns every rank's final virtual-clock reading.
std::vector<double> run_workload(int nranks) {
  Runtime rt(nranks, model::test_machine(), /*seed=*/42);
  std::vector<double> clocks(static_cast<std::size_t>(nranks), 0.0);
  rt.run([&](Comm& c) {
    const int rank = c.rank();
    double v = static_cast<double>(rank + 1);
    for (int i = 0; i < 3; ++i) v = c.allreduce(v, Op::Sum);
    const std::vector<double> payload(64, v);
    const int next = (rank + 1) % c.size();
    const int prev = (rank + c.size() - 1) % c.size();
    if (rank % 2 == 0) {
      c.send(std::span<const double>(payload), next, /*tag=*/7);
      c.recv<double>(prev, /*tag=*/7);
    } else {
      c.recv<double>(prev, /*tag=*/7);
      c.send(std::span<const double>(payload), next, /*tag=*/7);
    }
    std::vector<double> region(8, 0.0);
    Window win(c, MutableByteSpan(reinterpret_cast<std::byte*>(region.data()),
                                  region.size() * sizeof(double)));
    win.lock(0, LockType::Exclusive);
    const std::vector<double> one{1.0};
    win.accumulate_add(std::span<const double>(one), 0, 0);
    win.unlock(0);
    win.fence();
    if (rank == 0) {
      EXPECT_EQ(region[0], static_cast<double>(c.size()));
    }
    win.free();
    c.barrier();
    clocks[static_cast<std::size_t>(rank)] = c.clock().now();
  });
  return clocks;
}

TEST(FiberEngine, IsTheDefaultEngine) {
  // Every rank runs as a fiber on the calling thread: a run that touches a
  // wait point must have switched contexts.
  Runtime rt(4, model::test_machine());
  ASSERT_NE(rt.fiber_scheduler(), nullptr);
  EXPECT_EQ(rt.fiber_scheduler()->switch_count(), 0u);
  rt.run([&](Comm& c) { c.barrier(); });
  EXPECT_GT(rt.fiber_scheduler()->switch_count(), 0u);
}

TEST(FiberEngine, SameSeedReplayIsBitEqualAt256Ranks) {
  // The headline determinism contract at scale: two runs, exact double
  // equality on every rank's final clock.
  const auto a = run_workload(256);
  const auto b = run_workload(256);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r], b[r]) << "rank " << r;
    EXPECT_GT(a[r], 0.0) << "rank " << r;
  }
}

TEST(FiberEngine, CooperativeRecvUnblocksSender) {
  // Rank 1 parks in recv before rank 0 ever sends: the park must hand the
  // execution token onward (to rank 0) instead of spinning the only thread.
  Runtime rt(2, model::test_machine());
  rt.run([&](Comm& c) {
    if (c.rank() == 1) {
      const auto got = c.recv<int>(0, /*tag=*/3);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 41);
    } else {
      // A few collective-free hops so rank 1 is already parked when the
      // message is finally injected.
      const std::vector<int> payload{41};
      c.send(std::span<const int>(payload), 1, /*tag=*/3);
    }
  });
}

TEST(FiberEngine, SharedAndExclusiveWindowEpochsInterleave) {
  constexpr int kRanks = 8;
  constexpr int kRounds = 16;
  Runtime rt(kRanks, model::test_machine());
  rt.run([&](Comm& c) {
    std::vector<double> region(4, 0.0);
    Window win(c, MutableByteSpan(reinterpret_cast<std::byte*>(region.data()),
                                  region.size() * sizeof(double)));
    for (int round = 0; round < kRounds; ++round) {
      win.lock(0, LockType::Exclusive);
      const std::vector<double> one{1.0};
      win.accumulate_add(std::span<const double>(one), 0, 0);
      win.unlock(0);
      // Shared read-back of the running total (any interleaving is legal;
      // the final fence settles the exact value).
      double seen = 0.0;
      win.lock(0, LockType::Shared);
      win.get(MutableByteSpan(reinterpret_cast<std::byte*>(&seen),
                              sizeof(seen)),
              0, 0);
      win.unlock(0);
      EXPECT_GE(seen, 1.0);
    }
    win.fence();
    if (c.rank() == 0) {
      EXPECT_EQ(region[0], static_cast<double>(kRanks * kRounds));
    }
    win.free();
  });
}

TEST(FiberEngine, AbortPropagatesAndRuntimeStaysReusable) {
  Runtime rt(3, model::test_machine());
  EXPECT_THROW(rt.run([&](Comm& c) {
                 if (c.rank() == 1) throw IoError("injected");
                 c.barrier();
                 c.barrier();
               }),
               IoError);
  // The abort flag must be clean again: a fresh run on the same runtime
  // completes normally.
  rt.run([&](Comm& c) { c.barrier(); });
}

TEST(FiberEngine, CooperativeDeadlockFailsLoudly) {
  // Rank 0 waits for a message nobody will send while rank 1 exits: every
  // live fiber is parked on a false predicate.  The scheduler must detect
  // it immediately (no spin cap needed), drain the parked fiber via the
  // abort flag, and surface an InternalError.
  Runtime rt(2, model::test_machine());
  EXPECT_THROW(rt.run([&](Comm& c) {
                 if (c.rank() == 0) c.recv<int>(1, /*tag=*/99);
               }),
               InternalError);
  rt.run([&](Comm& c) { c.barrier(); });  // still reusable afterwards
}

TEST(FiberEngine, StackSizeEnvIsHonoredAndSwitchesAreCounted) {
  const ScopedEnv env("DDS_FIBER_STACK_KB", "256");
  Runtime rt(4, model::test_machine());
  ASSERT_NE(rt.fiber_scheduler(), nullptr);
  EXPECT_EQ(rt.fiber_scheduler()->stack_bytes(), 256u * 1024u);
  rt.run([&](Comm& c) {
    c.barrier();
    c.allreduce(1.0, Op::Sum);
  });
  // 4 ranks × several blocking ops each: the engine must actually have
  // switched contexts, not silently fallen back to something else.
  EXPECT_GT(rt.fiber_scheduler()->switch_count(), 8u);
}

TEST(FiberEngine, BogusStackSizeEnvIsRejected) {
  // Junk, a sign, zero, and sizes past the 1 GiB ceiling (whose byte count
  // would wrap) are all rejected rather than mapped as a 0-byte stack.
  for (const char* bogus :
       {"lots", "-1", "+64", " 64", "0", "1048577", "18014398509481984",
        "99999999999999999999999"}) {
    const ScopedEnv env("DDS_FIBER_STACK_KB", bogus);
    EXPECT_THROW(FiberScheduler::stack_bytes_from_env(), ConfigError)
        << bogus;
  }
  const ScopedEnv env("DDS_FIBER_STACK_KB", "1048576");
  EXPECT_EQ(FiberScheduler::stack_bytes_from_env(),
            FiberScheduler::kMaxStackKb * 1024);
}

TEST(FiberEngine, TinyStackRequestsAreClampedUp) {
  const ScopedEnv env("DDS_FIBER_STACK_KB", "1");
  EXPECT_GE(FiberScheduler::stack_bytes_from_env(), 64u * 1024u);
}

#if !DDS_TEST_UNDER_SANITIZER
namespace {
/// Burns fiber stack with one page-sized frame per level; the volatile
/// sink defeats tail-call and frame elision.
__attribute__((noinline)) int burn_stack(int depth, volatile std::byte* out) {
  volatile std::byte frame[4096];
  frame[0] = static_cast<std::byte>(depth);
  *out = frame[0];
  if (depth <= 0) return 0;
  return burn_stack(depth - 1, out) + static_cast<int>(frame[0]);
}
}  // namespace

using FiberEngineDeathTest = ::testing::Test;

TEST(FiberEngineDeathTest, OverflowHitsGuardPageLoudly) {
  // Deep recursion past the configured stack must die on the PROT_NONE
  // guard page (or the canary check) — never silently corrupt a neighbor
  // fiber's stack.  Sanitizer builds intercept the fault differently, so
  // this is gated to plain builds.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedEnv env("DDS_FIBER_STACK_KB", "64");
  EXPECT_DEATH(
      {
        Runtime rt(1, model::test_machine());
        rt.run([&](Comm&) {
          volatile std::byte sink{};
          burn_stack(1 << 16, &sink);
        });
      },
      "");
}
#endif  // !DDS_TEST_UNDER_SANITIZER

}  // namespace
}  // namespace dds::simmpi
