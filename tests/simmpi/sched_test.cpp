// Scheduler-level Runtime integration: bitwise-reproducible virtual clocks
// across runs, and abort propagation through ranks parked in cooperative
// waits.
#include <gtest/gtest.h>

#include <vector>

#include "model/machine.hpp"
#include "simmpi/runtime.hpp"

namespace dds::simmpi {
namespace {

/// One run of a small mixed workload (collectives + ring P2P); returns
/// every rank's final virtual-clock reading.
std::vector<double> run_deterministic(int nranks) {
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
    c.barrier();
    clocks[static_cast<std::size_t>(rank)] = c.clock().now();
  });
  return clocks;
}

TEST(DeterministicRuntime, ClocksBitwiseIdenticalAcrossRuns) {
  const auto a = run_deterministic(4);
  const auto b = run_deterministic(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r], b[r]) << "rank " << r;  // exact, not NEAR
    EXPECT_GT(a[r], 0.0) << "rank " << r;
  }
}

TEST(DeterministicRuntime, AbortStillPropagatesUnderScheduler) {
  // A rank throwing mid-program must unwind every peer (some parked in
  // cooperative waits) instead of deadlocking the token rotation.
  Runtime rt(3, model::test_machine());
  EXPECT_THROW(rt.run([&](Comm& c) {
                 if (c.rank() == 1) throw IoError("injected");
                 c.barrier();
                 c.barrier();
               }),
               IoError);
}

}  // namespace
}  // namespace dds::simmpi
