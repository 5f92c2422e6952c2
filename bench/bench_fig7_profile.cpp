// Fig. 7: Score-P-style profile of HydraGNN + DDStore training on the
// AISD-Ex discrete dataset with 64 Summit nodes (384 GPUs).
//
// A Tracer records named regions with call counts (the Score-P view);
// the MPI one-sided rows come from the span-level EventTracer — every
// win_lock/win_get/win_unlock the fetch path actually issued, merged
// across all ranks — instead of being synthesized from fetch counters.
// Paper: "Data loading accounts for approximately 67% of the training
// duration, while MPI RMA functions contribute to about 35% of the
// overall time spent in training."
#include <cstdio>

#include "common/harness.hpp"
#include "common/tracing/export.hpp"
#include "train/trace.hpp"

using namespace dds;
using namespace dds::bench;

int main() {
  const auto machine = model::summit();
  constexpr int kRanks = 64 * 6;  // 64 Summit nodes

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = kRanks;
  sc.local_batch = 128;
  sc.num_samples = scaled_samples(kRanks, sc.local_batch, /*min_steps=*/2);
  sc.ddstore.charge_replica_preload = false;

  StagedData data(machine, sc.kind, sc.num_samples, kRanks,
                  /*with_pff=*/false);

  train::Tracer merged;
  core::DDStoreStats store_stats;

  simmpi::Runtime rt(kRanks, machine, sc.seed);
  // ~1.5k events per rank for this configuration; 8k slots leave headroom
  // without ballooning 384 rank rings.
  rt.enable_tracing(/*capacity_per_rank=*/1u << 13);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStore store(comm, data.cff(), client, sc.ddstore);
    comm.barrier();
    comm.clock().reset();
    comm.barrier();
    store.reset_stats();
    // Drop the setup/preload spans so the trace covers steady-state
    // training only (each rank owns its tracer: single-writer clear).
    if (auto* tr = comm.tracer()) tr->clear();

    train::DDStoreBackend backend(store);
    train::GlobalShuffleSampler sampler(data.dataset().size(), sc.local_batch,
                                        sc.seed);
    train::SimTrainerConfig cfg;
    cfg.input_dim = data.input_dim();
    cfg.output_dim = data.dataset().spec().target_dim;
    train::SimulatedTrainer trainer(comm, backend, sampler, machine, cfg);
    train::Tracer tracer;
    trainer.set_tracer(&tracer);
    trainer.run_epoch(0);

    merged.merge(tracer);
    if (comm.rank() == 0) store_stats = store.stats();
    comm.barrier();
  });

  // MPI one-sided rows, measured: roll the per-rank win_* spans up and
  // split each get's span time into its lock-epoch share (the model folds
  // the shared-lock round trip into the per-access RMA overhead, so the
  // split uses the same rma_lock_fraction constant the charge did).
  std::uint64_t win_gets = 0, win_locks = 0;
  double win_get_seconds = 0;
  const auto span_rows = tracing::summarize(rt.traces());
  for (const auto& row : span_rows) {
    if (row.category != tracing::Category::Simmpi) continue;
    if (row.name == "win_get" || row.name == "win_getv") {
      win_gets += row.count;
      win_get_seconds += row.seconds;
    } else if (row.name == "win_lock") {
      win_locks += row.count;
    }
  }
  const double lock_share = machine.net.rma_lock_fraction;
  merged.record_n("MPI_Win_lock+unlock(shared)", win_locks,
                  win_get_seconds * lock_share);
  merged.record_n("MPI_Get", win_gets,
                  win_get_seconds * (1.0 - lock_share));

  const double total = merged.total_seconds();
  std::printf("# Fig. 7 (Summit, 64 nodes, AISD-Ex discrete, DDStore): "
              "Score-P-style profile, all ranks merged\n");
  print_row({"region", "calls", "seconds", "share"});
  for (const auto& [name, e] : merged.ranked()) {
    print_row({name, std::to_string(e.calls), fmt(e.seconds, 2),
               fmt(100.0 * e.seconds / total, 1) + "%"});
  }

  const auto& entries = merged.entries();
  const double loading = entries.at("DataLoader::load_batch").seconds;
  const double rma = entries.at("MPI_Get").seconds +
                     entries.at("MPI_Win_lock+unlock(shared)").seconds;
  std::printf("\nData loading share: %.1f%%  (paper: ~67%%)\n",
              100.0 * loading / total);
  std::printf("MPI RMA share:      %.1f%%  (paper: ~35%%)\n",
              100.0 * rma / total);
  std::printf("(remote fetches rank 0: %llu of %llu)\n",
              static_cast<unsigned long long>(store_stats.remote_gets),
              static_cast<unsigned long long>(store_stats.remote_gets +
                                              store_stats.local_gets));
  std::printf("\n# span-level rollup (all ranks, steady-state epoch)\n%s",
              tracing::summary_table(span_rows).c_str());
  return 0;
}
