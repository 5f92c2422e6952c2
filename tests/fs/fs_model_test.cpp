// Filesystem cost-model properties: the behaviours the paper's evaluation
// depends on must *emerge* from the model, not be scripted — these tests
// pin them down at test-machine scale.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "fs/parallel_fs.hpp"
#include "simmpi/runtime.hpp"

namespace dds::fs {
namespace {

using model::test_machine;

ByteBuffer blob(std::size_t n) { return ByteBuffer(n, std::byte{0x5a}); }

/// Closed-loop PFF-style load: `nranks` clients each opening+reading small
/// files back to back for `ops` iterations; returns mean per-op latency.
double closed_loop_pff_latency(int nranks, int ops) {
  auto machine = test_machine();
  machine.fs.mds_occupancy_s = 100e-6;  // exaggerate for a visible knee
  ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(nranks));
  for (int i = 0; i < 64; ++i) {
    pfs.write_file("f" + std::to_string(i), ByteSpan(blob(100)));
  }
  RunningStats lat;
  simmpi::Runtime rt(nranks, machine);
  rt.run([&](simmpi::Comm& c) {
    FsClient client(pfs, machine.node_of_rank(c.world_rank()), c.clock(),
                    c.rng());
    RunningStats mine;
    for (int i = 0; i < ops; ++i) {
      // Keep clocks loosely aligned (the BusyResource skew contract).
      if (i % 8 == 0) c.barrier();
      const double t0 = c.clock().now();
      (void)client.read_file("f" + std::to_string((i * 7 + c.rank()) % 64));
      mine.add(c.clock().now() - t0);
    }
    lat.merge(mine);
  });
  return lat.mean();
}

TEST(FsModel, MetadataServerSaturatesWithClientCount) {
  const double few = closed_loop_pff_latency(2, 32);
  const double many = closed_loop_pff_latency(16, 32);
  // 16 clients x 100 us occupancy exceed the ~1.2 ms base cycle: queueing
  // must show up.
  EXPECT_GT(many, few * 1.2);
}

TEST(FsModel, JitterIsMeanPreserving) {
  auto machine = test_machine();
  machine.fs.jitter_sigma = 0.3;
  machine.fs.stall_prob = 0.0;
  ParallelFileSystem pfs(machine.fs, 1);
  pfs.write_file("f", ByteSpan(blob(10)));
  model::VirtualClock clock;
  Rng rng(3);
  FsClient client(pfs, 0, clock, rng);
  RunningStats opens;
  for (int i = 0; i < 4000; ++i) {
    const double t0 = clock.now();
    client.open("f");
    opens.add(clock.now() - t0);
  }
  // Log-normal factor has mean 1: mean open ~ occupancy + service.
  const double expect = machine.fs.mds_occupancy_s + machine.fs.mds_service_s;
  EXPECT_NEAR(opens.mean(), expect, 0.05 * expect);
  EXPECT_GT(opens.stddev(), 0.0);
}

TEST(FsModel, StallsProduceTail) {
  auto machine = test_machine();
  machine.fs.jitter_sigma = 0.0;
  machine.fs.stall_prob = 0.05;
  machine.fs.stall_factor = 10.0;
  ParallelFileSystem pfs(machine.fs, 1);
  pfs.write_file("f", ByteSpan(blob(10)));
  model::VirtualClock clock;
  Rng rng(4);
  FsClient client(pfs, 0, clock, rng);
  LatencyRecorder lat;
  for (int i = 0; i < 2000; ++i) {
    const double t0 = clock.now();
    client.open("f");
    lat.add(clock.now() - t0);
  }
  // ~5% of ops hit the 10x stall: p99 >> p50.
  EXPECT_GT(lat.percentile(99), 3.0 * lat.percentile(50));
}

TEST(FsModel, UncacheableReadsNeverHit) {
  const auto machine = test_machine();
  ParallelFileSystem pfs(machine.fs, 1);
  pfs.write_file("f", ByteSpan(blob(1000)));
  model::VirtualClock clock;
  Rng rng(5);
  FsClient client(pfs, 0, clock, rng);
  for (int i = 0; i < 5; ++i) (void)client.read_file("f");  // PFF path
  EXPECT_EQ(client.stats().cache_hits, 0u);
  EXPECT_EQ(client.stats().cache_misses, 5u);
}

TEST(FsModel, CacheHitSkipsRpcLatency) {
  const auto machine = test_machine();
  ParallelFileSystem pfs(machine.fs, 1);
  pfs.write_file("f", ByteSpan(blob(100)));
  model::VirtualClock clock;
  Rng rng(6);
  FsClient client(pfs, 0, clock, rng);
  const auto ref = client.open("f");
  ByteBuffer dst(100);
  client.pread(ref, MutableByteSpan(dst), 0);  // miss, fills cache
  const double t0 = clock.now();
  client.pread(ref, MutableByteSpan(dst), 0);  // hit
  const double hit_cost = clock.now() - t0;
  // A hit costs exactly cache_hit_s: no RPC latency, no bandwidth queueing.
  EXPECT_NEAR(hit_cost, machine.fs.cache_hit_s, 1e-9);
}

TEST(FsModel, AmplifiedContainerReadSlowerThanSmallObjectRead) {
  // A CFF-style random read (block amplification) must cost more than a
  // PFF-style whole-small-file read minus its metadata open.
  const auto machine = test_machine();
  ParallelFileSystem pfs(machine.fs, 1);
  pfs.write_file("small", ByteSpan(blob(200)), 8000);
  pfs.write_file("container", ByteSpan(blob(100'000)), 400'000'000);
  model::VirtualClock clock;
  Rng rng(7);
  FsClient client(pfs, 0, clock, rng);
  const auto small = client.open("small");
  const auto big = client.open("container");
  ByteBuffer dst(200);
  double t0 = clock.now();
  client.pread(small, MutableByteSpan(dst), 0, /*sequential=*/true,
               /*cacheable=*/false);
  const double pff_read = clock.now() - t0;
  t0 = clock.now();
  client.pread(big, MutableByteSpan(dst), 50'000, /*sequential=*/false);
  const double cff_read = clock.now() - t0;
  EXPECT_GT(cff_read, pff_read);
}

}  // namespace
}  // namespace dds::fs
