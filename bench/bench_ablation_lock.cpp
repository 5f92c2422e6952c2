// Ablation: lock-per-sample vs one lock epoch per target vs fully
// coalesced vectored transfers in batch fetches.
//
// The paper's Fig. 3 walkthrough issues MPI_Win_lock / MPI_Get /
// MPI_Win_unlock per item.  One optimization sorts a batch by owner and
// holds one shared-lock epoch per distinct target, amortizing the
// lock/unlock software overhead (NetworkParams::rma_lock_fraction of the
// per-get cost); the full fetch planner additionally merges adjacent
// samples into single vectored gets (core/fetch_plan.hpp).  This bench
// measures all three against the Block vs RoundRobin placement choice and
// reports exactly what traffic each policy issued (lock epochs, RMA
// transfers).
#include <cstdio>
#include <string>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

const char* mode_name(core::BatchFetchMode mode) {
  switch (mode) {
    case core::BatchFetchMode::PerSample: return "lock-per-sample";
    case core::BatchFetchMode::LockPerTarget: return "lock-per-target";
    case core::BatchFetchMode::Coalesced: return "coalesced";
  }
  return "?";
}

void sweep(StagedData& data, const model::MachineConfig& machine, int nranks,
           core::BatchFetchMode mode, core::Placement placement) {
  simmpi::Runtime rt(nranks, machine);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStoreConfig config;
    config.batch_fetch = mode;
    config.placement = placement;
    config.charge_replica_preload = false;
    core::DDStore store(comm, data.cff(), client, config);
    comm.barrier();
    comm.clock().reset();

    train::GlobalShuffleSampler sampler(store.num_samples(), 128, 9);
    sampler.begin_epoch(0, comm);
    for (std::uint64_t step = 0; step < sampler.steps_per_epoch(); ++step) {
      const auto ids = sampler.batch_ids(step);
      const auto batch = store.get_batch(ids);
      DDS_CHECK(batch.size() == ids.size());
    }
    store.fence();

    if (comm.rank() == 0) {
      const MetricsRegistry& m = store.metrics();
      const LatencyRecorder& latency = *m.find_latency("sample_load_s");
      print_row({mode_name(mode),
                 placement == core::Placement::Block ? "block" : "round-robin",
                 fmt(latency.percentile(50) * 1e3, 3) + " ms",
                 fmt(latency.percentile(99) * 1e3, 3) + " ms",
                 fmt(latency.mean() * 1e3, 3) + " ms",
                 std::to_string(m.counter_value("lock_epochs")),
                 std::to_string(m.counter_value("rma_transfers"))});
    }
    comm.barrier();
  });
}

}  // namespace

int main() {
  const auto machine = model::perlmutter();
  constexpr int kRanks = 32;
  StagedData data(machine, datagen::DatasetKind::AisdExDiscrete, 16'384,
                  kRanks, /*with_pff=*/false);

  std::printf("# Ablation (Perlmutter, %d GPUs): RMA lock granularity and "
              "chunk placement, batch 128\n", kRanks);
  print_row({"lock mode", "placement", "p50 fetch", "p99 fetch", "mean",
             "lock epochs", "rma transfers"});
  for (const auto mode :
       {core::BatchFetchMode::PerSample, core::BatchFetchMode::LockPerTarget,
        core::BatchFetchMode::Coalesced}) {
    for (const auto placement :
         {core::Placement::Block, core::Placement::RoundRobin}) {
      sweep(data, machine, kRanks, mode, placement);
    }
  }
  std::printf("# amortizing the lock epoch saves ~%.0f%% of the per-get "
              "software overhead on every fetch after the first per target\n",
              100.0 * machine.net.rma_lock_fraction);
  return 0;
}
