// Resilient fetch path under injected faults: retries, checksum detection,
// cross-group failover, degraded-mode FS fallback, and the determinism of
// all of it (same seed => same fault counts, any seed => correct bytes).
#include <gtest/gtest.h>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "train/sim_trainer.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;

class DDStoreFaultsTest : public ::testing::Test {
 protected:
  DDStoreFaultsTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/4),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, kSamples, 7)) {
    formats::CffWriter::stage(fs_, "cff/ds", *ds_, 2);
  }

  fs::FsClient client_for(simmpi::Comm& c) {
    return fs::FsClient(fs_, machine_.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
  }

  formats::CffReader cff_reader() {
    return formats::CffReader(fs_, "cff/ds",
                              ds_->spec().nominal_cff_sample_bytes());
  }

  /// Checks that every sample decodes byte-identically to the generator's
  /// ground truth on this rank.
  void expect_all_samples_intact(DDStore& store) {
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      EXPECT_EQ(store.get(id), ds_->make(id)) << "sample " << id;
    }
  }

  /// Per-rank resilience counters after fetching the whole dataset once,
  /// for determinism comparisons.
  struct RankCounts {
    std::uint64_t retries;
    std::uint64_t failovers;
    std::uint64_t checksum_failures;
    std::uint64_t degraded_reads;
    std::uint64_t breaker_trips;
    std::uint64_t preload_retries;

    bool operator==(const RankCounts&) const = default;
  };

  std::vector<RankCounts> run_and_count(int nranks, int width,
                                        const faults::FaultConfig& fc) {
    std::vector<RankCounts> counts(static_cast<std::size_t>(nranks));
    simmpi::Runtime rt(nranks, machine_);
    rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, nranks));
    const auto reader = cff_reader();
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.width = width;
      DDStore store(c, reader, client, cfg);
      expect_all_samples_intact(store);
      const auto& st = store.stats();
      counts[static_cast<std::size_t>(c.rank())] =
          RankCounts{st.retries,         st.failovers,
                     st.checksum_failures, st.degraded_reads,
                     st.breaker_trips,   st.preload_retries};
    });
    return counts;
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(DDStoreFaultsTest, FaultFreeRunKeepsResilienceCountersAtZero) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 2;
    DDStore store(c, reader, client, cfg);
    expect_all_samples_intact(store);
    const auto& st = store.stats();
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.failovers, 0u);
    EXPECT_EQ(st.checksum_failures, 0u);
    EXPECT_EQ(st.degraded_reads, 0u);
    EXPECT_EQ(st.breaker_trips, 0u);
    EXPECT_EQ(st.preload_retries, 0u);
  });
}

TEST_F(DDStoreFaultsTest, TransientFailuresAreRetriedWithDataIntact) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.rma_fail_prob = 0.2;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);  // width 4: single replica
    expect_all_samples_intact(store);
    // Faults never change what the trainer sees, only what it cost.
    const auto total_retries =
        c.allreduce(store.stats().retries, simmpi::Op::Sum);
    EXPECT_GT(total_retries, 0u);
  });
}

TEST_F(DDStoreFaultsTest, CorruptedTransfersAreCaughtByChecksums) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.rma_corrupt_prob = 0.3;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    expect_all_samples_intact(store);
    // Corruption is silent at the transport level; only the checksum can
    // have caught it.  A catch on a non-final attempt forces a retry; one
    // on the last attempt of a target escalates to failover/FS fallback,
    // so retries need not dominate the catch count.
    const auto caught =
        c.allreduce(store.stats().checksum_failures, simmpi::Op::Sum);
    const auto retries = c.allreduce(store.stats().retries, simmpi::Op::Sum);
    EXPECT_GT(caught, 0u);
    EXPECT_GT(retries, 0u);
  });
}

TEST_F(DDStoreFaultsTest, DeadRankFailsOverToTwinInSiblingGroup) {
  simmpi::Runtime rt(8, machine_);
  faults::FaultConfig fc;
  fc.dead_rank = 1;  // group 0's second member; twins live in groups 1..3
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 8));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 2;
    DDStore store(c, reader, client, cfg);
    expect_all_samples_intact(store);
    const auto failovers =
        c.allreduce(store.stats().failovers, simmpi::Op::Sum);
    const auto degraded =
        c.allreduce(store.stats().degraded_reads, simmpi::Op::Sum);
    EXPECT_GT(failovers, 0u);        // rank 0 rerouted around its dead peer
    EXPECT_EQ(degraded, 0u);         // replication sufficed; no FS reads
    if (c.rank() == 0) {
      EXPECT_GT(store.stats().failovers, 0u);
      EXPECT_GT(store.stats().breaker_trips, 0u);
    }
  });
}

TEST_F(DDStoreFaultsTest, SingleReplicaDeadRankDegradesToFsFallback) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.dead_rank = 1;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);  // width 4: no sibling group to try
    expect_all_samples_intact(store);
    if (c.rank() != 1) {
      // Every sample owned by the dead rank had to come from the FS.
      EXPECT_GT(store.stats().degraded_reads, 0u);
      EXPECT_EQ(store.stats().failovers, 0u);
    }
  });
}

TEST_F(DDStoreFaultsTest, FsFallbackDisabledThrowsIoError) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.dead_rank = 1;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  EXPECT_THROW(
      rt.run([&](simmpi::Comm& c) {
        auto client = client_for(c);
        DDStoreConfig cfg;
        cfg.retry.fs_fallback = false;
        DDStore store(c, reader, client, cfg);
        for (std::uint64_t id = 0; id < kSamples; ++id) {
          (void)store.get(id);
        }
        store.fence();
      }),
      IoError);
}

TEST_F(DDStoreFaultsTest, SameSeedGivesIdenticalFaultCounts) {
  faults::FaultConfig fc;
  fc.seed = 1234;
  fc.rma_fail_prob = 0.1;
  fc.rma_corrupt_prob = 0.1;
  fc.dead_rank = 3;
  const auto first = run_and_count(8, 2, fc);
  const auto second = run_and_count(8, 2, fc);
  EXPECT_EQ(first, second);

  std::uint64_t activity = 0;
  for (const auto& rc : first) activity += rc.retries + rc.failovers;
  EXPECT_GT(activity, 0u);
}

TEST_F(DDStoreFaultsTest, PreloadRetriesTransientFsErrors) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.fs_read_error_prob = 0.15;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    expect_all_samples_intact(store);
    const auto preload_retries =
        c.allreduce(store.stats().preload_retries, simmpi::Op::Sum);
    EXPECT_GT(preload_retries, 0u);
    // FS faults are armed only around preload: steady-state fetches (and
    // any degraded-mode fallback) read the filesystem unimpeded.
    EXPECT_EQ(store.stats().degraded_reads, 0u);
  });
}

TEST_F(DDStoreFaultsTest, ResetStatsPreservesPreloadFacts) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.fs_read_error_prob = 0.15;
  fc.rma_fail_prob = 0.2;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get(id);
    const double preload_s = store.stats().preload_seconds;
    const std::uint64_t preload_r = store.stats().preload_retries;
    EXPECT_GT(preload_s, 0.0);

    store.reset_stats();
    EXPECT_EQ(store.stats().retries, 0u);
    EXPECT_EQ(store.stats().local_gets, 0u);
    EXPECT_EQ(store.stats().latency.count(), 0u);
    EXPECT_DOUBLE_EQ(store.stats().preload_seconds, preload_s);
    EXPECT_EQ(store.stats().preload_retries, preload_r);
  });
}

TEST_F(DDStoreFaultsTest, TruncatedSampleBufferThrowsDataError) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    ByteBuffer bytes = store.get_bytes(0);
    ASSERT_GT(bytes.size(), 8u);
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW((void)graph::GraphSample::deserialize(bytes), DataError);
    EXPECT_THROW((void)graph::GraphSample::deserialize(ByteBuffer{}),
                 DataError);
  });
}

TEST_F(DDStoreFaultsTest, EpochReportSurfacesResilienceActivity) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.rma_fail_prob = 0.15;
  fc.rma_corrupt_prob = 0.05;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    train::DDStoreBackend backend(store);
    train::GlobalShuffleSampler sampler(kSamples, /*local_batch=*/4, 42);
    train::SimTrainerConfig cfg;
    cfg.input_dim = 4;
    train::SimulatedTrainer trainer(c, backend, sampler, machine_, cfg);
    const auto report = trainer.run_epoch(0);
    // Every rank computes the same job-wide resilience sums.
    EXPECT_TRUE(report.resilience.any());
    EXPECT_GT(report.resilience.retries, 0u);
    const auto check = c.allgather(report.resilience.retries);
    for (const auto v : check) EXPECT_EQ(v, report.resilience.retries);
  });
}

}  // namespace
}  // namespace dds::core
