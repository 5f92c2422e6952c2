#include "model/clock.hpp"

#include <gtest/gtest.h>

namespace dds::model {
namespace {

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  c.advance(0.5);
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
}

TEST(VirtualClock, AdvanceToNeverMovesBackwards) {
  VirtualClock c;
  c.advance(10.0);
  c.advance_to(5.0);
  EXPECT_DOUBLE_EQ(c.now(), 10.0);
  c.advance_to(12.0);
  EXPECT_DOUBLE_EQ(c.now(), 12.0);
}

TEST(VirtualClock, NegativeAdvanceThrows) {
  VirtualClock c;
  EXPECT_THROW(c.advance(-0.1), InternalError);
}

TEST(BusyResource, IdleResourceStartsImmediately) {
  BusyResource r;
  EXPECT_DOUBLE_EQ(r.acquire(2.0, 1e-4), 2.0 + 1e-4);
}

TEST(BusyResource, SameBucketRequestsSerialize) {
  BusyResource r;  // default 0.5 ms buckets
  // Three 100 us ops ready at the same virtual instant queue behind each
  // other regardless of call order semantics (same bucket).
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100e-6), 100e-6);
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100e-6), 200e-6);
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100e-6), 300e-6);
}

TEST(BusyResource, DistantBucketsDoNotInteract) {
  BusyResource r;
  r.acquire(0.0, 400e-6);
  // Ready 100 ms later: the earlier work has long drained.
  EXPECT_DOUBLE_EQ(r.acquire(0.1, 50e-6), 0.1 + 50e-6);
}

TEST(BusyResource, OrderInsensitiveAcrossCallOrder) {
  // A request issued *later in wall-clock order* but *earlier in virtual
  // time* must not be charged for work deposited at later virtual times —
  // the property the old single-busy-until model violated.
  BusyResource r;
  for (int i = 0; i < 100; ++i) r.acquire(0.5, 100e-6);  // future burst
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100e-6), 100e-6);      // past stays idle
}

TEST(BusyResource, BacklogSpillsIntoFollowingBuckets) {
  BusyResource r;  // 0.5 ms buckets
  // 2.5 ms of work dumped into bucket 0 overflows ~2 ms into later buckets;
  // a request in the next bucket inherits that backlog via carry.
  for (int i = 0; i < 25; ++i) r.acquire(0.0, 100e-6);
  const double t = r.acquire(0.6e-3, 100e-6);
  EXPECT_GT(t, 0.6e-3 + 100e-6 + 1e-3);  // sees multi-ms backlog
}

TEST(BusyResource, AggregateWorkConserved) {
  BusyResource r;
  double last = 0.0;
  for (int i = 0; i < 100; ++i) last = std::max(last, r.acquire(0.0, 50e-6));
  // All ops share bucket 0: the last completes after the full 5 ms of work.
  EXPECT_DOUBLE_EQ(last, 100 * 50e-6);
  EXPECT_DOUBLE_EQ(r.total_work(), 100 * 50e-6);
}

TEST(BusyResource, ResetClearsState) {
  BusyResource r;
  r.acquire(0.0, 400e-6);
  r.reset();
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100e-6), 100e-6);
  EXPECT_DOUBLE_EQ(r.total_work(), 100e-6);
}

TEST(BusyResource, LongOperationSpreadsAcrossBuckets) {
  BusyResource r;
  // A 2 ms operation occupies four 0.5 ms buckets; a later request inside
  // that span queues behind the spread occupancy.
  r.acquire(0.0, 2e-3);
  const double t = r.acquire(1.1e-3, 100e-6);
  EXPECT_GT(t, 1.1e-3 + 100e-6);
}

}  // namespace
}  // namespace dds::model
