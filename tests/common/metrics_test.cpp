// MetricsRegistry contracts: registration-order iteration, stable
// references, reset semantics, and re-registration rules — everything
// DDStore::metrics() readers, epoch-delta diffing, and the bench JSON
// serializers rely on.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dds {
namespace {

TEST(MetricsRegistryTest, IterationFollowsRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("zulu");
  reg.counter("alpha");
  reg.counter("mike");
  const std::vector<std::string> expected = {"zulu", "alpha", "mike"};
  EXPECT_EQ(reg.counter_names(), expected);
  EXPECT_EQ(reg.num_counters(), 3u);
}

TEST(MetricsRegistryTest, ValuesAlignWithNamesPositionally) {
  MetricsRegistry reg;
  reg.counter("a") += 10;
  reg.counter("b") += 20;
  reg.counter("c") += 30;
  const auto names = reg.counter_names();
  const auto values = reg.counter_values();
  ASSERT_EQ(names.size(), values.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(values[i], reg.counter_value(names[i]));
  }
  EXPECT_EQ(values, (std::vector<std::uint64_t>{10, 20, 30}));
}

TEST(MetricsRegistryTest, ReferencesStayValidAsRegistryGrows) {
  MetricsRegistry reg;
  MetricsRegistry::Counter& first = reg.counter("first");
  // Force many deque/map insertions; the early references must not move.
  for (int i = 0; i < 1000; ++i) reg.counter("filler_" + std::to_string(i));
  ++first;
  first += 4;
  EXPECT_EQ(reg.counter_value("first"), 5u);
}

TEST(MetricsRegistryTest, UnregisteredNamesReadAsZero) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.has_counter("ghost"));
  EXPECT_EQ(reg.counter_value("ghost"), 0u);
  EXPECT_EQ(reg.find_latency("ghost"), nullptr);
}

TEST(MetricsRegistryTest, ReopeningReturnsTheSameEntry) {
  MetricsRegistry reg;
  MetricsRegistry::Counter& a = reg.counter("shared");
  MetricsRegistry::Counter& b = reg.counter("shared");
  EXPECT_EQ(&a, &b);
  ++a;
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.num_counters(), 1u);
}

TEST(MetricsRegistryTest, ResetZeroesEveryCounterAndLatencyRecorder) {
  MetricsRegistry reg;
  reg.counter("c") += 7;
  reg.counter("d", MetricLabel{"tenant", "1"}) += 9;
  reg.latency("lat").add(0.5);
  const auto names_before = reg.counter_names();

  reg.reset();

  EXPECT_EQ(reg.counter_values(), (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(reg.counter_names(), names_before);
  ASSERT_NE(reg.find_latency("lat"), nullptr);
  EXPECT_EQ(reg.find_latency("lat")->count(), 0u);
}

TEST(MetricsRegistryTest, ResetKeepsLayoutIntact) {
  // A reset must not disturb the registration-order layout that cross-rank
  // elementwise sums depend on.
  MetricsRegistry reg;
  reg.counter("one") += 1;
  reg.counter("two") += 2;
  const auto names_before = reg.counter_names();
  reg.reset();
  EXPECT_EQ(reg.counter_names(), names_before);
  reg.counter("two") += 5;
  EXPECT_EQ(reg.counter_values(), (std::vector<std::uint64_t>{0, 5}));
}

}  // namespace
}  // namespace dds
