// FetchEngine stress: eight ranks with overlapping hot ids drive the full
// staged read path through every batch mode — planning, cache churn,
// coalesced RMA, injected faults, and twin-aliased chunk buffers — with
// their fibers interleaving at every lock epoch and collective.
// Validation is byte-level: every rank decodes ground truth.
#include <gtest/gtest.h>

#include <limits>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 96;
constexpr int kRanks = 8;

class FetchStressTest : public ::testing::Test {
 protected:
  FetchStressTest()
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

  /// Deterministic per-rank id stream that guarantees cross-rank overlap
  /// (every rank keeps returning to the same hot ids) plus duplicates
  /// inside a batch.
  static std::vector<std::uint64_t> batch_ids(int rank, int epoch, int step) {
    std::vector<std::uint64_t> ids;
    ids.reserve(16);
    for (int i = 0; i < 16; ++i) {
      const auto mix = static_cast<std::uint64_t>(
          29 * rank + 41 * epoch + 13 * step + 7 * i);
      ids.push_back(i % 5 == 4 ? ids[0] : mix % kSamples);
    }
    return ids;
  }

  /// Runs a few epochs of overlapping batches through one store config and
  /// checks every decoded sample against ground truth.
  void hammer(simmpi::Comm& c, const formats::CffReader& reader,
              DDStoreConfig cfg) {
    auto client = client_for(c);
    DDStore store(c, reader, client, cfg);
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int step = 0; step < 4; ++step) {
        const auto ids = batch_ids(c.rank(), epoch, step);
        const auto batch = store.get_batch(ids);
        ASSERT_EQ(batch.size(), ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ASSERT_EQ(batch[i], ds_->make(ids[i]))
              << "rank " << c.rank() << " epoch " << epoch << " sample "
              << ids[i];
        }
      }
      store.fence();
      store.reset_stats();
    }
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(FetchStressTest, AllBatchModesConcurrentlyWithCacheAndFaults) {
  simmpi::Runtime rt(kRanks, machine_);
  faults::FaultConfig fc;
  fc.rma_fail_prob = 0.1;
  fc.rma_corrupt_prob = 0.05;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, kRanks));
  const auto reader = cff_reader();
  // A capacity around a third of the dataset keeps the LRU churning.
  std::uint64_t capacity = 0;
  for (std::uint64_t id = 0; id < kSamples / 3; ++id) {
    capacity += reader.read_bytes_raw(id).size();
  }
  rt.run([&](simmpi::Comm& c) {
    for (const BatchFetchMode mode :
         {BatchFetchMode::PerSample, BatchFetchMode::LockPerTarget,
          BatchFetchMode::Coalesced}) {
      DDStoreConfig cfg;
      cfg.width = 2;
      cfg.batch_fetch = mode;
      cfg.cache_capacity_bytes = capacity;
      hammer(c, reader, cfg);
    }
  });
}

TEST_F(FetchStressTest, TwinAliasedChunksUnderConcurrentCachedReads) {
  // width 4 over 8 ranks: two replica groups whose members alias the same
  // physical chunk buffers.  Both groups read everything in interleaved
  // steps while their private caches churn.
  simmpi::Runtime rt(kRanks, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    cfg.batch_fetch = BatchFetchMode::Coalesced;
    cfg.cache_capacity_bytes = std::numeric_limits<std::uint64_t>::max();
    DDStore store(c, reader, client, cfg);
    for (int round = 0; round < 2; ++round) {
      for (std::uint64_t id = 0; id < kSamples; ++id) {
        const std::uint64_t pick =
            (id + static_cast<std::uint64_t>(c.rank()) * 11) % kSamples;
        ASSERT_EQ(store.get(pick), ds_->make(pick));
      }
    }
    // Second round was fully cache-resident.
    EXPECT_GE(store.stats().cache_hits, kSamples);
    store.fence();
  });
}

}  // namespace
}  // namespace dds::core
