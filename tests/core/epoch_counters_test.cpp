// EpochCounters: the snapshot -> layout-checked delta -> cross-rank sum ->
// lookup rollup that every driver reports its counters through.
#include "core/epoch_counters.hpp"

#include <gtest/gtest.h>

namespace dds::core {
namespace {

using model::test_machine;

TEST(EpochCounters, ReducedDeltaSumsPerRankIncrements) {
  for (const int ranks : {1, 4}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    simmpi::Runtime rt(ranks, test_machine());
    rt.run([&](simmpi::Comm& c) {
      MetricsRegistry registry;
      auto& hits = registry.counter("hits");
      auto& bytes = registry.counter("bytes");
      // Counts from before the snapshot are not part of the epoch.
      hits += 1000;
      bytes += 7;
      EpochCounters counters(&registry);
      const auto r = static_cast<std::uint64_t>(c.rank());
      hits += r + 1;
      bytes += 10 * (r + 1);

      EXPECT_EQ(counters.local_delta(),
                (std::vector<std::uint64_t>{r + 1, 10 * (r + 1)}));
      const auto n = static_cast<std::uint64_t>(ranks);
      const std::uint64_t sum_hits = n * (n + 1) / 2;  // sum of rank + 1
      EXPECT_EQ(counters.reduce(c),
                (std::vector<std::uint64_t>{sum_hits, 10 * sum_hits}));
      EXPECT_EQ(counters.name(0), "hits");
      EXPECT_EQ(counters.metric("hits"), sum_hits);
      EXPECT_EQ(counters.metric("bytes"), 10 * sum_hits);
      EXPECT_EQ(counters.metric("never_registered"), 0u);

      // A new snapshot restarts the epoch.
      counters.snapshot();
      ++hits;
      EXPECT_EQ(counters.local_delta(), (std::vector<std::uint64_t>{1, 0}));
    });
  }
}

TEST(EpochCounters, CounterRegisteredAfterTheSnapshotThrows) {
  MetricsRegistry registry;
  registry.counter("hits");
  EpochCounters counters(&registry);
  registry.counter("late");
  EXPECT_THROW(counters.local_delta(), InternalError);
}

TEST(EpochCounters, NoRegistryGivesEmptyDeltasAndZeroMetrics) {
  simmpi::Runtime rt(2, test_machine());
  rt.run([&](simmpi::Comm& c) {
    EpochCounters counters(nullptr);
    EXPECT_TRUE(counters.reduce(c).empty());
    EXPECT_EQ(counters.metric("hits"), 0u);
  });
}

}  // namespace
}  // namespace dds::core
