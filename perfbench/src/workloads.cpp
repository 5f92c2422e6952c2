#include "workloads.hpp"

#include "common/error.hpp"

namespace perfbench {

namespace {

using dds::core::BatchFetchMode;
using dds::train::LoaderMode;

std::vector<Workload> build() {
  std::vector<Workload> out;
  {
    // The paper's full-machine Fig. 8 point: host time is fiber
    // scheduling, collectives, store construction and datagen.  Fetches
    // are per-sample lock/get/unlock; the prefetching loader reports each
    // sample's share of its batch time, because under the pipelined loader
    // every sample latency is one of a few queueing-model constants and
    // the percentiles do not depend on the inputs at all.
    Workload w;
    w.name = "scale1024";
    w.machine = dds::model::perlmutter();
    w.nranks = 256 * w.machine.gpus_per_node;
    w.local_batch = 16;
    w.num_samples = 32'768;
    w.epochs = 2;
    w.store.width = 0;
    w.store.batch_fetch = BatchFetchMode::PerSample;
    w.loader = LoaderMode::Prefetching;
    out.push_back(w);
  }
  {
    // The per-sample fetch path: plan, cache, getv memcpy, checksum,
    // decode and collate, with little scheduling.
    Workload w;
    w.name = "hotpath8";
    w.machine = dds::model::perlmutter();
    w.nranks = 8;
    w.local_batch = 64;
    w.num_samples = 16'384;
    w.epochs = 3;
    w.store.width = 2;
    w.store.batch_fetch = BatchFetchMode::Coalesced;
    w.loader = LoaderMode::Prefetching;
    w.cache_share = 0.5;
    out.push_back(w);
  }
  {
    // Out-of-core: half of every chunk lives in the cold tier behind the
    // staging queue; promotions and evictions churn the staged set.
    Workload w;
    w.name = "outofcore8";
    w.machine = dds::model::perlmutter();
    w.nranks = 8;
    w.local_batch = 32;
    w.num_samples = 16'384;
    w.epochs = 3;
    w.store.width = 8;
    w.store.batch_fetch = BatchFetchMode::Coalesced;
    w.store.tiered.hot_fraction = 0.5;
    w.store.tiered.staging_depth = 8;
    w.store.tiered.admission = dds::core::TierAdmission::Promote;
    w.staged_set_share = 0.5;
    w.loader = LoaderMode::Prefetching;
    out.push_back(w);
  }
  {
    // Gray failure: one rank 10x slower from mid-run, hedging armed.
    // LockPerTarget keeps one resilient (hedgeable) get per sample inside
    // each batch; the prefetching loader turns batch times into per-sample
    // latencies, so the hedged tail is not a handful of model constants.
    Workload w;
    w.name = "straggler8";
    w.machine = dds::model::perlmutter();
    w.nranks = 8;
    w.local_batch = 32;
    w.num_samples = 8'192;
    w.epochs = 4;
    w.store.width = 2;
    w.store.batch_fetch = BatchFetchMode::LockPerTarget;
    w.store.hedge.enabled = true;
    w.loader = LoaderMode::Prefetching;
    w.straggler = true;
    out.push_back(w);
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  throw dds::ConfigError("unknown workload '" + name + "'");
}

}  // namespace perfbench
