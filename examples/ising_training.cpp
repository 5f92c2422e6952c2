// Domain example 1 — ferromagnetic alloys: distributed-data-parallel
// training of the GNN on the Ising dataset (the paper's synthetic
// benchmark for ferromagnetic-alloy workloads, §4.1).
//
// Four ranks train a real PNA network to predict the per-bond Ising energy
// of 125-atom spin lattices, with DDStore serving globally-shuffled
// batches from distributed memory.  The analytic Hamiltonian label means
// the model genuinely learns: watch train/val MSE fall.
//
// Build & run:  ./build/examples/ising_training
#include <cstdio>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "train/real_trainer.hpp"

using namespace dds;

int main() {
  const auto machine = model::summit();
  constexpr int kRanks = 4;
  constexpr std::uint64_t kSamples = 512;
  constexpr int kEpochs = 15;

  fs::ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto dataset =
      datagen::make_dataset(datagen::DatasetKind::Ising, kSamples, 11);
  formats::CffWriter::stage(pfs, "data/ising", *dataset, 2);
  const formats::CffReader reader(pfs, "data/ising",
                                  dataset->spec().nominal_cff_sample_bytes());

  std::printf("# Ising DDP training: %llu lattices, %d ranks, %d epochs\n",
              static_cast<unsigned long long>(kSamples), kRanks, kEpochs);
  std::printf("epoch, train_mse, val_mse, test_mse, lr\n");

  simmpi::Runtime runtime(kRanks, machine);
  runtime.run([&](simmpi::Comm& world) {
    fs::FsClient fs_client(pfs, machine.node_of_rank(world.world_rank()),
                           world.clock(), world.rng());
    core::DDStore store(world, reader, fs_client);
    train::DDStoreBackend backend(store);

    train::RealTrainerConfig cfg;
    cfg.gnn.input_dim = 2;  // (spin, bias)
    cfg.gnn.hidden = 16;
    cfg.gnn.pna_layers = 2;
    cfg.gnn.fc_layers = 2;
    cfg.gnn.output_dim = 1;  // lattice energy
    cfg.local_batch = 8;
    cfg.optimizer.lr = 2e-3;
    cfg.optimizer.weight_decay = 1e-4;
    train::RealTrainer trainer(world, backend, cfg);

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const auto r = trainer.run_epoch(static_cast<std::uint64_t>(epoch));
      if (world.rank() == 0) {
        std::printf("%d, %.5f, %.5f, %.5f, %.4g\n", epoch, r.train_loss,
                    r.val_loss, r.test_loss, r.lr);
      }
    }
    if (world.rank() == 0) {
      std::printf("# fetches: %llu local / %llu remote; preload %.2f s "
                  "(simulated)\n",
                  static_cast<unsigned long long>(
                      store.metrics().counter_value("local_gets")),
                  static_cast<unsigned long long>(
                      store.metrics().counter_value("remote_gets")),
                  store.stats().preload_seconds);
    }
  });
  return 0;
}
