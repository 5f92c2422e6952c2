// Cross-module integration tests: the full pipeline from dataset synthesis
// through staging, DDStore, sampling, and training.
#include <gtest/gtest.h>

#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "formats/pff.hpp"
#include "train/real_trainer.hpp"
#include "train/sim_trainer.hpp"

namespace dds {
namespace {

using datagen::DatasetKind;
using model::test_machine;

struct PipelineResult {
  double epoch_seconds = 0;
  double latency_p50 = 0;
  std::vector<double> latencies;
};

PipelineResult run_pipeline(std::uint64_t seed) {
  const auto machine = test_machine();
  constexpr int kRanks = 4;
  constexpr std::uint64_t kSamples = 96;

  fs::ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto ds = datagen::make_dataset(DatasetKind::AisdExDiscrete,
                                        kSamples, 11);
  formats::CffWriter::stage(pfs, "cff", *ds, 2);
  const formats::CffReader reader(pfs, "cff",
                                  ds->spec().nominal_cff_sample_bytes());

  PipelineResult result;
  simmpi::Runtime rt(kRanks, machine, seed);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(pfs, machine.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
    core::DDStore store(c, reader, client);
    c.barrier();
    c.clock().reset();
    c.barrier();
    train::DDStoreBackend backend(store);
    train::GlobalShuffleSampler sampler(kSamples, 8, seed);
    train::SimTrainerConfig cfg;
    cfg.input_dim = 6;
    cfg.output_dim = 100;
    train::SimulatedTrainer trainer(c, backend, sampler, machine, cfg);
    const auto report = trainer.run_epoch(0);
    auto lat = trainer.gather_latencies();
    if (c.rank() == 0) {
      result.epoch_seconds = report.epoch_seconds;
      result.latency_p50 = lat.percentile(50);
      result.latencies = lat.raw();
    }
    c.barrier();
  });
  return result;
}

TEST(Pipeline, ReproducibleAcrossRuns) {
  // Data, sampling, costs and the fiber schedule are all fixed by the
  // seed, so the whole timeline reproduces bit for bit.
  const auto a = run_pipeline(77);
  const auto b = run_pipeline(77);
  EXPECT_GT(a.epoch_seconds, 0.0);
  EXPECT_EQ(a.epoch_seconds, b.epoch_seconds);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latencies, b.latencies);
}

TEST(Pipeline, DifferentSeedsDifferentTimelines) {
  const auto a = run_pipeline(77);
  const auto b = run_pipeline(78);
  EXPECT_NE(a.epoch_seconds, b.epoch_seconds);
}

TEST(Pipeline, AllBackendsDeliverIdenticalSamples) {
  // Whatever the storage/caching path, the bytes reaching the model must
  // be identical for the same sample ids.
  const auto machine = test_machine();
  constexpr int kRanks = 2;
  constexpr std::uint64_t kSamples = 40;
  fs::ParallelFileSystem pfs(machine.fs, 1);
  const auto ds = datagen::make_dataset(DatasetKind::Ising, kSamples, 5);
  formats::CffWriter::stage(pfs, "cff", *ds, 2);
  formats::PffWriter::stage(pfs, "pff", *ds);
  const formats::CffReader cff(pfs, "cff", 1000);
  const formats::PffReader pff(pfs, "pff", kSamples, 1000);
  fs::NvmeParams nvme_params;
  fs::NvmeTier tier(nvme_params, 1);

  simmpi::Runtime rt(kRanks, machine);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(pfs, 0, c.clock(), c.rng());
    core::DDStore store(c, cff, client);
    train::DDStoreBackend dds_backend(store);
    train::FileBackend cff_backend(cff, client, "CFF");
    train::FileBackend pff_backend(pff, client, "PFF");
    train::NvmeStagedBackend nvme_backend(cff, client, tier, 0);
    for (std::uint64_t id = c.rank(); id < kSamples; id += 2) {
      const auto expect = ds->make(id);
      EXPECT_EQ(dds_backend.load(id), expect);
      EXPECT_EQ(cff_backend.load(id), expect);
      EXPECT_EQ(pff_backend.load(id), expect);
      EXPECT_EQ(nvme_backend.load(id), expect);
    }
  });
}

TEST(Pipeline, RealTrainingThroughDDStoreConvergesAndStaysInSync) {
  const auto machine = test_machine();
  constexpr int kRanks = 3;
  constexpr std::uint64_t kSamples = 96;
  fs::ParallelFileSystem pfs(machine.fs, 1);
  const auto ds = datagen::make_dataset(DatasetKind::Ising, kSamples, 9);
  formats::CffWriter::stage(pfs, "cff", *ds, 2);
  const formats::CffReader reader(pfs, "cff", 1000);

  simmpi::Runtime rt(kRanks, machine);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(pfs, 0, c.clock(), c.rng());
    core::DDStore store(c, reader, client);
    train::DDStoreBackend backend(store);
    train::RealTrainerConfig cfg;
    cfg.gnn.input_dim = 2;
    cfg.gnn.hidden = 8;
    cfg.gnn.pna_layers = 1;
    cfg.gnn.fc_layers = 1;
    cfg.local_batch = 8;
    cfg.optimizer.lr = 3e-3;
    cfg.optimizer.weight_decay = 0.0;
    train::RealTrainer trainer(c, backend, cfg);
    const auto first = trainer.run_epoch(0);
    train::TrainEpochResult last{};
    for (std::uint64_t e = 1; e < 6; ++e) last = trainer.run_epoch(e);
    EXPECT_LT(last.train_loss, first.train_loss);
    // Replicas remain bit-identical (DDP invariant) across the whole run.
    float checksum = 0;
    for (const auto& p : trainer.model().parameters()) {
      for (const float v : *p.value) checksum += v;
    }
    const auto sums = c.allgather(checksum);
    for (const float s : sums) EXPECT_FLOAT_EQ(s, sums[0]);
  });
}

TEST(Pipeline, WidthChangeDoesNotChangeDeliveredData) {
  // Re-sharding to a different width (e.g. after changing the GPU count,
  // §2.2 of the paper) must be purely an execution-plan change.
  const auto machine = test_machine();
  constexpr std::uint64_t kSamples = 48;
  fs::ParallelFileSystem pfs(machine.fs, 2);
  const auto ds = datagen::make_dataset(DatasetKind::AisdHomoLumo, kSamples, 2);
  formats::CffWriter::stage(pfs, "cff", *ds, 2);
  const formats::CffReader reader(pfs, "cff", 1000);

  for (const int nranks : {2, 4, 8}) {
    for (const int width : {2, nranks}) {
      simmpi::Runtime rt(nranks, machine);
      rt.run([&](simmpi::Comm& c) {
        fs::FsClient client(pfs, machine.node_of_rank(c.world_rank()),
                            c.clock(), c.rng());
        core::DDStoreConfig cfg;
        cfg.width = width;
        core::DDStore store(c, reader, client, cfg);
        for (std::uint64_t id = 0; id < kSamples; id += 5) {
          EXPECT_EQ(store.get(id), ds->make(id))
              << "nranks " << nranks << " width " << width;
        }
      });
    }
  }
}

}  // namespace
}  // namespace dds
