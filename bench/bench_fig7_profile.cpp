// Fig. 7: Score-P-style profile of HydraGNN + DDStore training on the
// AISD-Ex discrete dataset with 64 Summit nodes (384 GPUs).
//
// Every row comes from the span-level EventTracer, merged across all
// ranks: the trainer's phase spans become the Score-P regions, and the
// MPI one-sided rows are every win_lock/win_get the fetch path actually
// issued, instead of being synthesized from fetch counters.
// Paper: "Data loading accounts for approximately 67% of the training
// duration, while MPI RMA functions contribute to about 35% of the
// overall time spent in training."
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/harness.hpp"
#include "common/tracing/export.hpp"

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

  // Rank 0's fetch split, read from its store's registry.
  std::uint64_t remote_gets = 0;
  std::uint64_t local_gets = 0;

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
    trainer.run_epoch(0);

    if (comm.rank() == 0) {
      remote_gets = store.metrics().counter_value("remote_gets");
      local_gets = store.metrics().counter_value("local_gets");
    }
    comm.barrier();
  });

  // The ring overwrites its oldest events when full; a profile built from
  // a truncated trace would silently undercount, so refuse it.
  for (const auto* tr : rt.traces()) {
    if (tr->dropped() != 0) {
      throw std::runtime_error("Fig. 7: rank " + std::to_string(tr->rank()) +
                               " dropped " + std::to_string(tr->dropped()) +
                               " trace events; raise the ring capacity");
    }
  }

  // Score-P regions, keyed by region name: calls and inclusive seconds.
  struct Region {
    std::uint64_t calls = 0;
    double seconds = 0;
  };
  const std::map<std::string, const char*> train_regions = {
      {"load", "DataLoader::load_batch"},
      {"collate", "Batch::collate"},
      {"forward", "Model::forward"},
      {"backward", "Model::backward"},
      {"allreduce_grad", "MPI_Allreduce(gradients)"},
      {"optimizer", "AdamW::step"},
  };
  std::map<std::string, Region> regions;
  // MPI one-sided rows: split each get's span time into its lock-epoch
  // share (the model folds the shared-lock round trip into the per-access
  // RMA overhead, so the split uses the same rma_lock_fraction constant
  // the charge did).
  std::uint64_t win_gets = 0, win_locks = 0;
  double win_get_seconds = 0;
  const auto span_rows = tracing::summarize(rt.traces());
  for (const auto& row : span_rows) {
    if (row.category == tracing::Category::Train) {
      const auto it = train_regions.find(row.name);
      if (it != train_regions.end()) {
        regions[it->second] = Region{row.count, row.seconds};
      }
    } else if (row.category == tracing::Category::Simmpi) {
      if (row.name == "win_get" || row.name == "win_getv") {
        win_gets += row.count;
        win_get_seconds += row.seconds;
      } else if (row.name == "win_lock") {
        win_locks += row.count;
      }
    }
  }
  const double lock_share = machine.net.rma_lock_fraction;
  regions["MPI_Win_lock+unlock(shared)"] =
      Region{win_locks, win_get_seconds * lock_share};
  regions["MPI_Get"] = Region{win_gets, win_get_seconds * (1.0 - lock_share)};

  double total = 0;
  for (const auto& [_, r] : regions) total += r.seconds;
  std::vector<std::pair<std::string, Region>> ranked(regions.begin(),
                                                     regions.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.seconds > b.second.seconds;
                   });
  std::printf("# Fig. 7 (Summit, 64 nodes, AISD-Ex discrete, DDStore): "
              "Score-P-style profile, all ranks merged\n");
  print_row({"region", "calls", "seconds", "share"});
  for (const auto& [name, r] : ranked) {
    print_row({name, std::to_string(r.calls), fmt(r.seconds, 2),
               fmt(100.0 * r.seconds / total, 1) + "%"});
  }

  const double loading = regions.at("DataLoader::load_batch").seconds;
  const double rma = regions.at("MPI_Get").seconds +
                     regions.at("MPI_Win_lock+unlock(shared)").seconds;
  std::printf("\nData loading share: %.1f%%  (paper: ~67%%)\n",
              100.0 * loading / total);
  std::printf("MPI RMA share:      %.1f%%  (paper: ~35%%)\n",
              100.0 * rma / total);
  std::printf("(remote fetches rank 0: %llu of %llu)\n",
              static_cast<unsigned long long>(remote_gets),
              static_cast<unsigned long long>(remote_gets + local_gets));
  std::printf("\n# span-level rollup (all ranks, steady-state epoch)\n%s",
              tracing::summary_table(span_rows).c_str());
  return 0;
}
