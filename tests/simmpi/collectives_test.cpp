#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/runtime.hpp"

namespace dds::simmpi {
namespace {

using model::test_machine;

TEST(Collectives, BarrierSynchronizesClocksToMax) {
  Runtime rt(4, test_machine());
  rt.run([&](Comm& c) {
    c.clock().advance(0.001 * (c.rank() + 1));  // rank 3 is slowest: 4 ms
    c.barrier();
    EXPECT_GE(c.clock().now(), 0.004);
  });
  // All clocks equal after a barrier.
  const double t0 = rt.clock_of(0).now();
  for (int r = 1; r < 4; ++r) EXPECT_DOUBLE_EQ(rt.clock_of(r).now(), t0);
}

TEST(Collectives, AllreduceSum) {
  Runtime rt(8, test_machine());
  rt.run([](Comm& c) {
    const int total = c.allreduce(c.rank() + 1, Op::Sum);
    EXPECT_EQ(total, 36);  // 1+2+...+8
  });
}

TEST(Collectives, AllreduceMinMaxProd) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    EXPECT_EQ(c.allreduce(c.rank(), Op::Max), 3);
    EXPECT_EQ(c.allreduce(c.rank(), Op::Min), 0);
    EXPECT_EQ(c.allreduce(c.rank() + 1, Op::Prod), 24);
  });
}

TEST(Collectives, AllreduceInplaceVector) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    std::vector<double> grad = {1.0 * c.rank(), 1.0};
    c.allreduce_inplace(std::span<double>(grad), Op::Sum);
    EXPECT_DOUBLE_EQ(grad[0], 6.0);  // 0+1+2+3
    EXPECT_DOUBLE_EQ(grad[1], 4.0);
  });
}

TEST(Collectives, BcastScalarAndVector) {
  Runtime rt(5, test_machine());
  rt.run([](Comm& c) {
    std::uint64_t token = (c.rank() == 2) ? 777 : 0;
    c.bcast(&token, 1, 2);
    EXPECT_EQ(token, 777u);

    std::vector<float> v;
    if (c.rank() == 0) v = {1.0f, 2.0f, 3.0f};
    c.bcast(v, 0);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_FLOAT_EQ(v[2], 3.0f);
  });
}

TEST(Collectives, Allgather) {
  Runtime rt(6, test_machine());
  rt.run([](Comm& c) {
    const auto all = c.allgather(10 * c.rank());
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) EXPECT_EQ(all[r], 10 * r);
  });
}

TEST(Collectives, AllgathervVariableCounts) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    // Rank r contributes r elements with value r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank()), c.rank());
    std::vector<std::size_t> counts;
    const auto all = c.allgatherv(std::span<const int>(mine), &counts);
    ASSERT_EQ(counts.size(), 4u);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(counts[r], static_cast<std::size_t>(r));
    ASSERT_EQ(all.size(), 6u);  // 0+1+2+3
    EXPECT_EQ(all[0], 1);
    EXPECT_EQ(all[5], 3);
  });
}

TEST(Collectives, Alltoallv) {
  Runtime rt(3, test_machine());
  rt.run([](Comm& c) {
    // Rank r sends {r*10 + d} to destination d.
    std::vector<std::vector<int>> send(3);
    for (int d = 0; d < 3; ++d) send[d] = {c.rank() * 10 + d};
    const auto recv = c.alltoallv(send);
    ASSERT_EQ(recv.size(), 3u);
    for (int s = 0; s < 3; ++s) EXPECT_EQ(recv[s], s * 10 + c.rank());
  });
}

TEST(Collectives, SplitFormsReplicaGroups) {
  // 8 ranks, width 4 -> 2 groups, as DDStore would split them.
  Runtime rt(8, test_machine());
  rt.run([](Comm& c) {
    const int width = 4;
    Comm group = c.split(c.rank() / width, c.rank());
    EXPECT_EQ(group.size(), width);
    EXPECT_EQ(group.rank(), c.rank() % width);
    EXPECT_EQ(group.world_rank(), c.rank());
    // Group collectives only involve members.
    const int sum = group.allreduce(1, Op::Sum);
    EXPECT_EQ(sum, width);
  });
}

TEST(Collectives, SplitRespectsKeyOrdering) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    // Reverse ordering via key.
    Comm rev = c.split(0, -c.rank());
    EXPECT_EQ(rev.rank(), c.size() - 1 - c.rank());
  });
}

TEST(Collectives, DupPreservesRankAndSize) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    Comm d = c.dup();
    EXPECT_EQ(d.rank(), c.rank());
    EXPECT_EQ(d.size(), c.size());
  });
}

TEST(Collectives, NestedSplit) {
  Runtime rt(8, test_machine());
  rt.run([](Comm& c) {
    Comm half = c.split(c.rank() / 4, c.rank());
    Comm pair = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(pair.size(), 2);
    const auto got = pair.allgather(c.rank());
    // Pairs are (0,1),(2,3),(4,5),(6,7) in world ranks.
    EXPECT_EQ(got[1] - got[0], 1);
  });
}

TEST(Collectives, CollectivesAdvanceClock) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    const double before = c.clock().now();
    c.barrier();
    EXPECT_GT(c.clock().now(), before);
  });
}

TEST(Runtime, ExceptionInOneRankPropagates) {
  Runtime rt(4, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 if (c.rank() == 2) throw ConfigError("boom");
                 c.barrier();  // other ranks must not deadlock
                 c.barrier();
               }),
               ConfigError);
}

TEST(Runtime, ReusableAfterFailure) {
  Runtime rt(3, test_machine());
  EXPECT_THROW(
      rt.run([](Comm& c) {
        if (c.rank() == 0) throw DataError("x");
        c.barrier();
      }),
      DataError);
  int ok = 0;
  rt.run([&](Comm& c) {
    c.barrier();
    ++ok;
  });
  EXPECT_EQ(ok, 3);
}

TEST(Runtime, ManyRanksScale) {
  // Sanity: a 256-rank world completes collectives promptly.
  Runtime rt(256, model::perlmutter());
  rt.run([](Comm& c) {
    const int total = c.allreduce(1, Op::Sum);
    EXPECT_EQ(total, 256);
  });
}

TEST(Runtime, ResetTimeClearsClocks) {
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) { c.barrier(); });
  EXPECT_GT(rt.max_clock(), 0.0);
  rt.reset_time();
  EXPECT_DOUBLE_EQ(rt.max_clock(), 0.0);
}

TEST(Runtime, RngStreamsPerRankAreDeterministic) {
  std::vector<std::uint64_t> first(4), second(4);
  {
    Runtime rt(4, test_machine(), /*seed=*/99);
    rt.run([&](Comm& c) { first[c.rank()] = c.rng().next(); });
  }
  {
    Runtime rt(4, test_machine(), /*seed=*/99);
    rt.run([&](Comm& c) { second[c.rank()] = c.rng().next(); });
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first[0], first[1]);
}

}  // namespace
}  // namespace dds::simmpi
