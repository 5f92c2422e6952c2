// Fault-injection ablation: what does resilience cost, and what does
// replication buy back?
//
// Sweeps the transient RMA fault rate {0, 0.1%, 1%, 5%} (corruption armed
// at half the failure rate, plus one straggler target and one rank dying
// mid-epoch) across replication widths {1, 2, 4} on 8 Perlmutter ranks,
// and reports throughput next to the resilience counters.  Width 1 is the all-local control (no remote
// gets, so no injectable faults); wider stores expose more traffic to the
// fault arms but give the fetch path cross-group twins to fail over to.
//
// A second section ablates the recovery mode when a rank dies outright:
// "static_degraded" is the pre-elastic behavior (fetches fail over to the
// twin forever, or fall back to the FS), while "elastic_rebuild" mounts an
// ElasticDriver that detects the dead rank at the first epoch boundary,
// rebuilds its chunk from the surviving twin group, and revives it — the
// per-epoch resilience counters show how many epochs each mode spends
// paying fault traffic.
//
// Output is a JSON array, one object per (width, rate) cell, so the sweep
// can be diffed or plotted directly.
#include <cstdio>

#include "common/harness.hpp"
#include "elastic/driver.hpp"
#include "train/sampler.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

void print_cell(bool first, int width, int replicas, double rate,
                const RunResult& result,
                const train::ResilienceReport& total) {
  if (!first) std::printf(",\n");
  std::printf(
      "  {\"machine\": \"perlmutter\", \"width\": %d, \"replicas\": %d, "
      "\"fault_rate\": %s, \"throughput_sps\": %s, \"p50_ms\": %s, "
      "\"p99_ms\": %s, \"retries\": %llu, \"failovers\": %llu, "
      "\"checksum_failures\": %llu, \"degraded_reads\": %llu}",
      width, replicas, fmt(rate, 4).c_str(),
      fmt(result.mean_throughput(), 0).c_str(),
      fmt(result.latencies.percentile(50) * 1e3).c_str(),
      fmt(result.latencies.percentile(99) * 1e3).c_str(),
      static_cast<unsigned long long>(total.retries),
      static_cast<unsigned long long>(total.failovers),
      static_cast<unsigned long long>(total.checksum_failures),
      static_cast<unsigned long long>(total.degraded_reads));
}

/// One dead-rank recovery cell: drains `epochs` full-dataset epochs at
/// width 4 with rank 2 dead from the start, either leaving the store
/// degraded (`rebuild` false) or mounting an ElasticDriver that rebuilds
/// the chunk from the twin group at the first epoch boundary.  Prints the
/// per-epoch fault-traffic counters (summed across ranks) and the number
/// of epochs that still paid fault traffic.
void elastic_recovery_cell(StagedData& data,
                           const model::MachineConfig& machine, int nranks,
                           bool rebuild) {
  const int epochs = 4;
  data.fs().reset_time_state();
  simmpi::Runtime rt(nranks, machine, /*seed=*/42);
  faults::FaultConfig fc;
  fc.dead_rank = 2;
  fc.death_time_s = 0.0;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, nranks));

  std::vector<std::uint64_t> fault_traffic;  // per epoch, summed over ranks
  std::uint64_t rebuilds = 0;
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(data.fs(), machine.node_of_rank(c.world_rank()),
                        c.clock(), c.rng());
    core::DDStoreConfig cfg;
    cfg.width = 4;
    cfg.elastic = rebuild;
    cfg.charge_replica_preload = false;
    core::DDStore store(c, data.cff(), client, cfg);
    std::unique_ptr<elastic::ElasticDriver> driver;
    if (rebuild) {
      elastic::ElasticConfig ecfg;
      ecfg.adapt_width = false;  // isolate recovery from width adaptation
      driver = std::make_unique<elastic::ElasticDriver>(store, ecfg);
    }
    train::GlobalShuffleSampler sampler(data.dataset().size(),
                                        /*local_batch=*/32, /*seed=*/42);
    c.clock().reset();
    std::uint64_t prev = 0;
    for (int e = 0; e < epochs; ++e) {
      sampler.begin_epoch(static_cast<std::uint64_t>(e), c);
      const double t0 = c.clock().now();
      for (std::uint64_t step = 0; step < sampler.steps_per_epoch(); ++step) {
        for (const std::uint64_t id : sampler.batch_ids(step)) {
          (void)store.get(id);
        }
      }
      c.barrier();
      if (driver) driver->on_epoch_end(c.clock().now() - t0);
      const auto s = store.stats();
      const std::uint64_t mine =
          s.retries + s.failovers + s.degraded_reads - prev;
      prev = s.retries + s.failovers + s.degraded_reads;
      std::uint64_t total = 0;
      for (const std::uint64_t v : c.allgather_untimed(mine)) total += v;
      if (c.rank() == 0) fault_traffic.push_back(total);
    }
    std::uint64_t my_rebuilds = store.stats().rank_rebuilds;
    std::uint64_t all_rebuilds = 0;
    for (const std::uint64_t v : c.allgather_untimed(my_rebuilds)) {
      all_rebuilds += v;
    }
    if (c.rank() == 0) rebuilds = all_rebuilds;
    store.fence();
  });

  int paying = 0;
  for (const std::uint64_t v : fault_traffic) paying += v != 0 ? 1 : 0;
  std::printf(",\n  {\"machine\": \"perlmutter\", \"scenario\": \"%s\", "
              "\"width\": 4, \"replicas\": 2, \"dead_rank\": 2, "
              "\"rebuilds\": %llu, \"epochs_paying_fault_traffic\": %d, "
              "\"fault_traffic_per_epoch\": [",
              rebuild ? "elastic_rebuild" : "static_degraded",
              static_cast<unsigned long long>(rebuilds), paying);
  for (std::size_t i = 0; i < fault_traffic.size(); ++i) {
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(fault_traffic[i]));
  }
  std::printf("]}");
}

}  // namespace

int main() {
  const model::MachineConfig machine = model::perlmutter();
  const int nranks = 8;
  const double rates[] = {0.0, 0.001, 0.01, 0.05};
  const int widths[] = {1, 2, 4};

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = nranks;
  sc.local_batch = 32;
  sc.epochs = 2;
  sc.num_samples = scaled_samples(nranks, sc.local_batch, /*min_steps=*/2,
                                  /*floor_samples=*/2048);
  sc.ddstore.charge_replica_preload = false;

  StagedData data(machine, sc.kind, sc.num_samples, nranks,
                  /*with_pff=*/false);

  std::printf("[\n");
  bool first = true;
  for (const int width : widths) {
    for (const double rate : rates) {
      Scenario run = sc;
      run.ddstore.width = width;
      run.faults.rma_fail_prob = rate;
      run.faults.rma_corrupt_prob = rate / 2.0;
      if (rate > 0) {
        run.faults.straggler_rank = 1;
        run.faults.straggler_factor = 4.0;
        // One rank dies partway through the first epoch: with replicas > 1
        // its traffic fails over to cross-group twins; width 1 never
        // targets it remotely and rides through untouched.
        run.faults.dead_rank = 2;
        run.faults.death_time_s = 0.02;
      }
      const auto result = run_training(data, run, BackendKind::DDStore);

      train::ResilienceReport total;
      for (const auto& e : result.epochs) {
        total.retries += e.resilience.retries;
        total.failovers += e.resilience.failovers;
        total.checksum_failures += e.resilience.checksum_failures;
        total.degraded_reads += e.resilience.degraded_reads;
      }
      print_cell(first, width, nranks / width, rate, result, total);
      first = false;
    }
  }

  // Recovery-mode ablation: the same dead rank, degraded forever vs
  // rebuilt from its twin group at the first epoch boundary.
  elastic_recovery_cell(data, machine, nranks, /*rebuild=*/false);
  elastic_recovery_cell(data, machine, nranks, /*rebuild=*/true);

  std::printf("\n]\n");
  return 0;
}
