// Tests for the DDStore design-space knobs: two-sided vs one-sided
// communication, lock amortization, and the NVMe-staged backend.
#include <gtest/gtest.h>

#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "train/backend.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 48;

class ModesTest : public ::testing::Test {
 protected:
  ModesTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/2),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, kSamples, 5)) {
    formats::CffWriter::stage(fs_, "cff", *ds_, 2);
    reader_ = std::make_unique<formats::CffReader>(
        fs_, "cff", ds_->spec().nominal_cff_sample_bytes());
  }

  fs::FsClient client_for(simmpi::Comm& c) {
    return fs::FsClient(fs_, machine_.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
  std::unique_ptr<formats::CffReader> reader_;
};

TEST_F(ModesTest, TwoSidedModeReturnsCorrectData) {
  simmpi::Runtime rt(4, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.comm_mode = CommMode::TwoSided;
    DDStore store(c, *reader_, client, cfg);
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      EXPECT_EQ(store.get(id), ds_->make(id)) << "sample " << id;
    }
  });
}

TEST_F(ModesTest, TwoSidedVerifiedEpochServesIdenticalBytesAtNoModeledCost) {
  // One epoch over every sample with verification on and off: the served
  // bytes are the staged bytes, nothing fails verification, and the
  // check leaves the modeled clock exactly where it was.
  double epoch_time[2] = {0, 0};
  for (const bool verify : {false, true}) {
    simmpi::Runtime rt(4, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.comm_mode = CommMode::TwoSided;
      cfg.retry.verify_checksums = verify;
      DDStore store(c, *reader_, client, cfg);
      c.barrier();
      c.clock().reset();
      for (std::uint64_t id = 0; id < kSamples; ++id) {
        EXPECT_EQ(store.get_bytes(id), reader_->read_bytes_raw(id))
            << "sample " << id;
      }
      EXPECT_EQ(store.stats().checksum_failures, 0u);
      EXPECT_GT(store.stats().remote_gets, 0u);
      const double t = c.allreduce(c.clock().now(), simmpi::Op::Max);
      if (c.rank() == 0) epoch_time[verify ? 1 : 0] = t;
    });
  }
  EXPECT_GT(epoch_time[0], 0.0);
  EXPECT_EQ(epoch_time[1], epoch_time[0]);
}

TEST_F(ModesTest, TwoSidedCorruptRegionThrowsDataError) {
  simmpi::Runtime rt(2, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.comm_mode = CommMode::TwoSided;
    DDStore store(c, *reader_, client, cfg);
    c.barrier();
    if (c.rank() == 0) {
      std::uint64_t remote_id = 0;
      while (store.is_local(remote_id)) ++remote_id;
      const auto& entry = store.registry().lookup(remote_id);
      // The broker serves from the owner's exposed region; damage one byte
      // of it, fetch, then restore it.
      const int target = store.layout().primary_target(
          c.rank(), static_cast<int>(entry.owner));
      auto* region = static_cast<std::byte*>(
          const_cast<void*>(store.rma_window().region_data(target)));
      region[entry.offset] ^= std::byte{0x01};
      EXPECT_THROW(store.get_bytes(remote_id), DataError);
      region[entry.offset] ^= std::byte{0x01};
      EXPECT_EQ(store.stats().checksum_failures, 1u);
      EXPECT_EQ(store.get_bytes(remote_id), reader_->read_bytes_raw(remote_id));
    }
    c.barrier();
  });
}

TEST_F(ModesTest, TwoSidedSlowerThanRmaWithSlowBroker) {
  double rma_time = 0, two_sided_time = 0;
  for (const bool two_sided : {false, true}) {
    simmpi::Runtime rt(4, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      if (two_sided) {
        cfg.comm_mode = CommMode::TwoSided;
        cfg.broker_poll_mean_s = 5e-3;  // broker polls between steps
      }
      DDStore store(c, *reader_, client, cfg);
      c.barrier();
      c.clock().reset();
      for (std::uint64_t id = 0; id < kSamples; ++id) store.get(id);
      const double t = c.allreduce(c.clock().now(), simmpi::Op::Max);
      if (c.rank() == 0) (two_sided ? two_sided_time : rma_time) = t;
    });
  }
  EXPECT_GT(two_sided_time, rma_time);
}

TEST_F(ModesTest, TwoSidedLocalFetchSkipsBroker) {
  simmpi::Runtime rt(2, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.comm_mode = CommMode::TwoSided;
    cfg.broker_poll_mean_s = 10e-3;
    DDStore store(c, *reader_, client, cfg);
    std::uint64_t local_id = 0;
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      if (store.is_local(id)) local_id = id;
    }
    const double t0 = c.clock().now();
    store.get(local_id);
    // Local fetches never traverse the broker.
    EXPECT_LT(c.clock().now() - t0, 1e-3);
  });
}

TEST_F(ModesTest, LockPerTargetBatchIsCheaperThanPerSample) {
  double per_sample = 0, per_target = 0;
  for (const bool amortize : {false, true}) {
    simmpi::Runtime rt(4, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.batch_fetch = amortize ? BatchFetchMode::LockPerTarget
                                 : BatchFetchMode::PerSample;
      DDStore store(c, *reader_, client, cfg);
      c.barrier();
      c.clock().reset();
      std::vector<std::uint64_t> ids;
      for (std::uint64_t id = 0; id < kSamples; ++id) ids.push_back(id);
      const auto batch = store.get_batch(ids);
      for (std::uint64_t id = 0; id < kSamples; ++id) {
        EXPECT_EQ(batch[id], ds_->make(id));
      }
      const double t = c.allreduce(c.clock().now(), simmpi::Op::Max);
      if (c.rank() == 0) (amortize ? per_target : per_sample) = t;
    });
  }
  EXPECT_LT(per_target, per_sample);
  // The saving is bounded by the lock fraction of the software overhead.
  EXPECT_GT(per_target, per_sample * (1.0 - machine_.net.rma_lock_fraction));
}

TEST_F(ModesTest, NvmeBackendRoundTripAndWarmup) {
  fs::NvmeParams nvme;
  nvme.capacity_bytes = 1 << 20;
  fs::NvmeTier tier(nvme, 2);
  simmpi::Runtime rt(2, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    const int node = machine_.node_of_rank(c.world_rank());
    train::NvmeStagedBackend backend(*reader_, client, tier, node);
    // Ranks share a node (and therefore the NVMe device), so each rank
    // works a disjoint id range — otherwise one rank's cold pass would
    // pre-warm the other's.
    const std::uint64_t lo = kSamples / 2 * static_cast<std::uint64_t>(c.rank());
    const std::uint64_t hi = lo + kSamples / 2;
    double cold = 0, warm = 0;
    {
      const double t0 = c.clock().now();
      for (std::uint64_t id = lo; id < hi; ++id) {
        EXPECT_EQ(backend.load(id), ds_->make(id));
      }
      cold = c.clock().now() - t0;
    }
    // Warm pass: same samples now resident on the node's device.
    {
      const double t0 = c.clock().now();
      for (std::uint64_t id = lo; id < hi; ++id) {
        EXPECT_EQ(backend.load(id), ds_->make(id));
      }
      warm = c.clock().now() - t0;
    }
    EXPECT_LT(warm, cold);
  });
}

TEST_F(ModesTest, RawReadsMatchTimedReads) {
  simmpi::Runtime rt(1, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    for (std::uint64_t id = 0; id < kSamples; id += 5) {
      EXPECT_EQ(reader_->read_bytes_raw(id), reader_->read_bytes(id, client));
    }
  });
}

}  // namespace
}  // namespace dds::core
