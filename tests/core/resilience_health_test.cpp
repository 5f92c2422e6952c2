// Unit tests for the resilience stage's per-target health machinery
// (core/fetch/health.hpp): the three-state circuit breaker's half-open
// transition edges, and the HealthTracker's score / quarantine / adaptive
// deadline behaviour.  Both classes are pure bookkeeping, so no runtime or
// virtual clock is needed here.
#include "core/fetch/health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/fetch/target_map.hpp"

namespace dds::core::fetch {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- breaker

TEST(CircuitBreaker, TripsAfterThresholdConsecutiveFailures) {
  CircuitBreaker b(/*threshold=*/3, /*cooldown=*/4);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.open());
  EXPECT_TRUE(b.on_failure());  // third strike reports the trip
  EXPECT_TRUE(b.open());
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker b(3, 4);
  b.on_failure();
  b.on_failure();
  b.on_success();  // interleaved success forgives the streak
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.open());
  EXPECT_TRUE(b.on_failure());
}

TEST(CircuitBreaker, CooldownSkipsThenArmsTheHalfOpenProbe) {
  CircuitBreaker b(1, /*cooldown=*/3);
  EXPECT_TRUE(b.on_failure());
  // Every cooldown consultation skips; the one that exhausts it still
  // skips but arms the probe, so the *next* fetch goes through.
  EXPECT_TRUE(b.should_skip());
  EXPECT_TRUE(b.should_skip());
  EXPECT_TRUE(b.should_skip());
  EXPECT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(b.should_skip());  // probe admitted
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  CircuitBreaker b(1, 2);
  b.on_failure();
  while (b.should_skip()) {
  }
  ASSERT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  b.on_success();
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  // Fully recovered: a single new failure below threshold does not trip.
  CircuitBreaker fresh(2, 2);
  fresh.on_failure();
  EXPECT_FALSE(fresh.open());
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopensImmediately) {
  CircuitBreaker b(/*threshold=*/3, /*cooldown=*/2);
  b.on_failure();
  b.on_failure();
  ASSERT_TRUE(b.on_failure());
  while (b.should_skip()) {
  }
  ASSERT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  // One failed probe re-opens — it does NOT get `threshold` fresh strikes.
  EXPECT_TRUE(b.on_failure());
  EXPECT_TRUE(b.open());
  // A still-broken target therefore costs exactly one probe per window.
  int probes = 0;
  for (int fetch = 0; fetch < 12; ++fetch) {
    if (!b.should_skip()) {
      ++probes;
      b.on_failure();
    }
  }
  EXPECT_EQ(probes, 4);  // 12 fetches / (2 skips + 1 probe) per window
}

TEST(CircuitBreaker, ResetClosesAndClearsHistory) {
  CircuitBreaker b(1, 64);
  b.on_failure();
  ASSERT_TRUE(b.open());
  b.reset();
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_FALSE(b.should_skip());
}

// ------------------------------------------------------------- target map

TEST(TargetMap, FindsEveryTouchedTargetAcrossGrowth) {
  TargetMap<int> m;
  EXPECT_EQ(m.find(0), nullptr);
  // Scattered targets, touched twice: the second touch keeps the value.
  for (int i = 0; i < 3000; ++i) m.touch(i * 7 % 4099, i);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(m.touch(i * 7 % 4099, -1), i);
  EXPECT_EQ(m.size(), 3000u);
  for (int i = 0; i < 3000; ++i) {
    const int* v = std::as_const(m).find(i * 7 % 4099);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  int missing = 0;
  for (int t = 0; t < 4099; ++t) missing += m.find(t) == nullptr ? 1 : 0;
  EXPECT_EQ(missing, 4099 - 3000);
  *m.find(14) = 99;  // records are mutable in place
  EXPECT_EQ(m.touch(14, 0), 99);
}

// ---------------------------------------------------------------- tracker

HealthParams test_params() {
  HealthParams p;  // library defaults; pinned here so the math below holds
  p.alpha = 0.2;
  p.alpha_down = 0.5;
  p.min_observations = 8;
  p.quarantine_below = 0.3;
  p.deadline_sigma = 4.0;
  p.deadline_floor_s = 50e-6;
  p.deadline_cap_ratio = 6.0;
  p.penalty_step = 1.0;
  p.penalty_decay = 0.9;
  return p;
}

void feed(HealthTracker& t, std::size_t target, double service_s, int n) {
  for (int i = 0; i < n; ++i) t.observe(target, service_s);
}

TEST(HealthTracker, UncalibratedTargetsAreHealthyAndNeverHedged) {
  HealthTracker t(2, test_params());
  EXPECT_DOUBLE_EQ(t.score(0), 1.0);
  EXPECT_FALSE(t.quarantined(0));
  EXPECT_EQ(t.deadline(0), kInf);
  feed(t, 0, 100e-6, 7);  // one short of min_observations
  EXPECT_DOUBLE_EQ(t.score(0), 1.0);
  EXPECT_EQ(t.deadline(0), kInf);
  t.observe(0, 100e-6);  // eighth observation calibrates
  EXPECT_TRUE(std::isfinite(t.deadline(0)));
  EXPECT_EQ(t.observations(0), 8u);
}

TEST(HealthTracker, SteadyServiceScoresOneWithTightDeadline) {
  HealthTracker t(1, test_params());
  feed(t, 0, 100e-6, 20);
  // First observation seeds the EWMA, so a constant series holds exactly.
  EXPECT_DOUBLE_EQ(t.score(0), 1.0);
  EXPECT_DOUBLE_EQ(t.deadline(0), 100e-6);  // ewdev 0, above the floor
}

TEST(HealthTracker, DeadlineNeverDropsBelowTheFloor) {
  HealthTracker t(1, test_params());
  feed(t, 0, 10e-6, 10);  // faster than the floor
  EXPECT_DOUBLE_EQ(t.deadline(0), 50e-6);
}

TEST(HealthTracker, DegradationQuarantinesAndCapsItsOwnDeadline) {
  HealthTracker t(1, test_params());
  feed(t, 0, 100e-6, 12);  // healthy baseline
  ASSERT_DOUBLE_EQ(t.score(0), 1.0);
  feed(t, 0, 1e-3, 8);  // 10x degradation
  EXPECT_LT(t.score(0), 0.3);
  EXPECT_TRUE(t.quarantined(0));
  // The inflated EWMA must not push the hedging deadline out of reach:
  // it is capped at deadline_cap_ratio * the target's best (healthy) EWMA,
  // so probation probes stay bounded.
  EXPECT_LE(t.deadline(0), 6.0 * 100e-6 * (1.0 + 1e-12));
}

TEST(HealthTracker, RecoveryIsFasterThanDegradation) {
  HealthTracker t(1, test_params());
  feed(t, 0, 100e-6, 12);
  feed(t, 0, 1e-3, 8);
  ASSERT_TRUE(t.quarantined(0));
  // Asymmetric smoothing (alpha_down > alpha): a recovered target
  // un-quarantines within a few probation probes.
  int probes = 0;
  while (t.quarantined(0) && probes < 4) {
    t.observe(0, 100e-6);
    ++probes;
  }
  EXPECT_FALSE(t.quarantined(0));
  EXPECT_LE(probes, 3);
}

TEST(HealthTracker, DegradedSinceBirthIsABaselineNotAFailure) {
  HealthTracker t(2, test_params());
  feed(t, 0, 100e-6, 20);  // a fast target
  feed(t, 1, 5e-3, 20);    // a slow-from-the-start target (e.g. remote)
  // Scores are self-relative: steady targets all score 1 regardless of
  // their absolute service time, so far targets are never mis-quarantined.
  EXPECT_DOUBLE_EQ(t.score(0), 1.0);
  EXPECT_DOUBLE_EQ(t.score(1), 1.0);
}

TEST(HealthTracker, BestBaselineRatchetsDownOnImprovement) {
  HealthTracker t(1, test_params());
  feed(t, 0, 1e-3, 12);
  ASSERT_DOUBLE_EQ(t.score(0), 1.0);
  feed(t, 0, 100e-6, 30);  // the target gets faster for good
  // Improvement never reads as degradation; the baseline follows it down.
  EXPECT_DOUBLE_EQ(t.score(0), 1.0);
  EXPECT_LE(t.deadline(0), 6.0 * 1e-3);
}

TEST(HealthTracker, FailurePenaltyDiscountsThenDecays) {
  HealthTracker t(1, test_params());
  feed(t, 0, 100e-6, 12);
  t.penalize(0);
  EXPECT_DOUBLE_EQ(t.score(0), 0.5);  // 1 / (1 + penalty_step)
  t.penalize(0);
  EXPECT_NEAR(t.score(0), 1.0 / 3.0, 1e-12);
  // Penalties bite even before calibration (a failing cold target must not
  // hide behind "unknown = healthy").
  HealthTracker cold(1, test_params());
  cold.penalize(0);
  EXPECT_DOUBLE_EQ(cold.score(0), 0.5);
  // Clean successes decay the penalty back out.
  feed(t, 0, 100e-6, 60);
  EXPECT_GT(t.score(0), 0.95);
}

TEST(HealthTracker, ResetForgetsOneTargetOnly) {
  HealthTracker t(2, test_params());
  feed(t, 0, 100e-6, 12);
  feed(t, 0, 1e-3, 8);
  feed(t, 1, 100e-6, 12);
  t.penalize(1);
  ASSERT_TRUE(t.quarantined(0));
  t.reset(0);
  EXPECT_DOUBLE_EQ(t.score(0), 1.0);
  EXPECT_EQ(t.deadline(0), kInf);  // back to uncalibrated
  EXPECT_EQ(t.observations(0), 0u);
  EXPECT_DOUBLE_EQ(t.score(1), 0.5);  // untouched
}

TEST(HealthTracker, UntouchedTargetsReadFreshWithoutARecord) {
  HealthTracker t(4096, test_params());
  for (std::size_t i = 0; i < 4096; ++i) {
    EXPECT_DOUBLE_EQ(t.score(i), 1.0);
    EXPECT_FALSE(t.quarantined(i));
    EXPECT_EQ(t.deadline(i), kInf);
    EXPECT_EQ(t.observations(i), 0u);
  }
  t.reset(17);  // forgetting an untouched target is a no-op
  EXPECT_EQ(t.tracked(), 0u);
  // Writes create exactly one record per touched target.
  t.observe(3, 100e-6);
  t.penalize(3);
  t.penalize(900);
  EXPECT_EQ(t.tracked(), 2u);
  t.reset(900);  // resets the record in place
  EXPECT_EQ(t.tracked(), 2u);
  EXPECT_DOUBLE_EQ(t.score(900), 1.0);
  EXPECT_EQ(t.observations(3), 1u);
}

TEST(HealthTracker, OutOfRangeTargetsThrow) {
  HealthTracker t(4, test_params());
  EXPECT_THROW(t.score(4), std::out_of_range);
  EXPECT_THROW(t.deadline(4), std::out_of_range);
  EXPECT_THROW(t.observations(4), std::out_of_range);
  EXPECT_THROW(t.observe(4, 1e-4), std::out_of_range);
  EXPECT_THROW(t.penalize(4), std::out_of_range);
  EXPECT_THROW(t.reset(4), std::out_of_range);
  EXPECT_EQ(t.tracked(), 0u);
}

}  // namespace
}  // namespace dds::core::fetch
