// Cross-tenant isolation and QoS, end to end through the MultiTenantDriver.
//
// The load-bearing claims:
//   * served bytes are a pure function of the tenant's own sampler — a
//     tenant sharing the store (and its cache) with N-1 others is served
//     the exact same payload bytes as running solo;
//   * real-GNN loss curves are bit-identical between a solo run and the
//     same trainer interleaved with another tenant under the arbiter —
//     interleaving changes execution order, never math;
//   * per-tenant labeled counters partition the global counters when all
//     traffic flows through tenants;
//   * one greedy tenant cannot starve another: the victim's wait is capped
//     by the starvation bound and its p99 fetch latency stays within a
//     small factor of its solo p99.
#include "tenant/driver.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>

#include "common/tracing/tracer.hpp"
#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "simmpi/runtime.hpp"

namespace dds::tenant {
namespace {

using model::test_machine;

constexpr std::uint64_t kSamples = 256;
constexpr int kRanks = 4;

struct MultiTenantTest : public ::testing::Test {
  MultiTenantTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/4),
        ds_(datagen::make_dataset(datagen::DatasetKind::AisdHomoLumo, kSamples,
                                  11)) {
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

  core::DDStoreConfig store_config() {
    core::DDStoreConfig cfg;
    cfg.width = 2;
    cfg.cache_capacity_bytes = 64 * 1024;  // small: tenants compete
    return cfg;
  }

  /// Four tenants with distinct seeds/batches; [0] mounts the first half,
  /// the rest share the full store.
  std::vector<TenantSpec> four_tenants() {
    std::vector<TenantSpec> specs(4);
    specs[0].name = "half";
    specs[0].mount_samples = kSamples / 2;
    specs[0].local_batch = 4;
    specs[0].seed = 21;
    specs[1].name = "full-a";
    specs[1].local_batch = 8;
    specs[1].seed = 22;
    specs[2].name = "full-b";
    specs[2].local_batch = 8;
    specs[2].seed = 23;
    specs[2].weight = 2.0;
    specs[3].name = "small";
    specs[3].local_batch = 2;
    specs[3].seed = 24;
    return specs;
  }

  /// Runs `epochs` driver epochs over the given tenants and returns the
  /// last epoch's reports (rank-identical, so rank 0's copy suffices).
  std::vector<TenantEpochReport> run_driver(
      const std::vector<TenantSpec>& specs, std::uint64_t epochs,
      QosPolicy policy = {}) {
    simmpi::Runtime rt(kRanks, machine_, /*seed=*/42);
    const auto reader = cff_reader();
    std::vector<TenantEpochReport> out;
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, reader, client, store_config());
      TenantRegistry reg(store);
      for (const auto& s : specs) reg.admit(s);
      DriverConfig dcfg;
      dcfg.policy = policy;
      MultiTenantDriver driver(c, reg, machine_, dcfg);
      std::vector<TenantEpochReport> last;
      for (std::uint64_t e = 0; e < epochs; ++e) last = driver.run_epoch(e);
      if (c.rank() == 0) out = last;
    });
    return out;
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(MultiTenantTest, TwoTenantReportsArePinnedBitExactly) {
  // Every report field of a 2-tenant, 2-epoch WRR run, pinned to the bit
  // (doubles as hexfloat).  The bench's smoke output rounds latencies to
  // 1 us, so only this pin proves a driver refactor changed nothing.
  const auto specs = four_tenants();
  const std::vector<TenantSpec> two = {specs[0], specs[2]};
  simmpi::Runtime rt(kRanks, machine_, /*seed=*/42);
  const auto reader = cff_reader();
  std::vector<TenantEpochReport> got;
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    core::DDStore store(c, reader, client, store_config());
    TenantRegistry reg(store);
    for (const auto& s : two) reg.admit(s);
    MultiTenantDriver driver(c, reg, machine_);
    for (std::uint64_t e = 0; e < 2; ++e) {
      const auto reports = driver.run_epoch(e);
      if (c.rank() == 0) got.insert(got.end(), reports.begin(), reports.end());
    }
  });
  const TenantEpochReport want[] = {
      {0, "half", 0, 8, 128, 0x1.fa9659f831be2p-5, 0x1.02bc3a120e79dp+11,
       0x1.020c9b0bc9cp-15, 0x1.569d49c026p-15, 307930, 7, 121, 20090, 121,
       328020, 1, 121},
      {1, "full-b", 0, 8, 256, 0x1.2e689f24a560fp-4, 0x1.b16d3d2faed93p+11,
       0x1.5342566b8e6p-15, 0x1.5a72f220d36p-15, 635692, 10, 246, 26472, 246,
       662164, 1, 246},
      {0, "half", 1, 8, 128, 0x1.f95aa9098f994p-5, 0x1.035ddb5ee9b56p+11,
       0x1.020c9b0bc98p-15, 0x1.569d49c026p-15, 307260, 10, 118, 20760, 118,
       328020, 1, 118},
      {1, "full-b", 1, 8, 256, 0x1.301e01f6d518ap-4, 0x1.aefde0cb09c63p+11,
       0x1.020c9b0bc98p-15, 0x1.5aeda72ce9p-15, 623830, 13, 243, 38334, 243,
       662164, 1, 243},
  };
  ASSERT_EQ(got.size(), std::size(want));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TenantEpochReport& g = got[i];
    const TenantEpochReport& w = want[i];
    SCOPED_TRACE("report " + std::to_string(i));
    EXPECT_EQ(g.tenant, w.tenant);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.epoch, w.epoch);
    EXPECT_EQ(g.steps, w.steps);
    EXPECT_EQ(g.global_samples, w.global_samples);
    EXPECT_EQ(g.epoch_seconds, w.epoch_seconds);
    EXPECT_EQ(g.throughput, w.throughput);
    EXPECT_EQ(g.p50_fetch_s, w.p50_fetch_s);
    EXPECT_EQ(g.p99_fetch_s, w.p99_fetch_s);
    EXPECT_EQ(g.bytes_fetched, w.bytes_fetched);
    EXPECT_EQ(g.cache_hits, w.cache_hits);
    EXPECT_EQ(g.cache_misses, w.cache_misses);
    EXPECT_EQ(g.cache_hit_bytes, w.cache_hit_bytes);
    EXPECT_EQ(g.lock_epochs, w.lock_epochs);
    EXPECT_EQ(g.served_bytes, w.served_bytes);
    EXPECT_EQ(g.max_wait_grants, w.max_wait_grants);
    EXPECT_EQ(g.arbiter_service, w.arbiter_service);
  }
}

TEST_F(MultiTenantTest, ServedBytesMatchSoloRun) {
  const auto specs = four_tenants();
  const auto shared = run_driver(specs, 2);
  ASSERT_EQ(shared.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    // Same tenant, alone on a fresh store: the shuffle (hence the unique
    // id multiset per batch, hence the served bytes) must be identical —
    // cache sharing changes *where* bytes come from, never *which*.
    const auto solo = run_driver({specs[k]}, 2);
    ASSERT_EQ(solo.size(), 1u);
    EXPECT_EQ(shared[k].served_bytes, solo[0].served_bytes)
        << "tenant " << specs[k].name;
    EXPECT_EQ(shared[k].global_samples, solo[0].global_samples);
    EXPECT_GT(shared[k].served_bytes, 0u);
  }
}

TEST_F(MultiTenantTest, TenantStepsRecordGpuPhaseSpans) {
  // Tenants run the trainer's step model, so their steps show up in the
  // trace like the trainer's: per rank, forward -> backward ->
  // allreduce_grad -> optimizer for every step of every tenant.
  const char* const kGpuPhases[] = {"forward", "backward", "allreduce_grad",
                                    "optimizer"};
  const auto specs = four_tenants();
  for (const std::size_t tenants : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(tenants) + " tenants");
    simmpi::Runtime rt(kRanks, machine_, /*seed=*/42);
    rt.enable_tracing(/*capacity_per_rank=*/1u << 14);
    const auto reader = cff_reader();
    std::uint64_t steps = 0;  // summed over tenants
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, reader, client, store_config());
      TenantRegistry reg(store);
      for (std::size_t k = 0; k < tenants; ++k) reg.admit(specs[k]);
      MultiTenantDriver driver(c, reg, machine_);
      const auto reports = driver.run_epoch(0);
      if (c.rank() != 0) return;
      for (const auto& r : reports) steps += r.steps;
    });
    ASSERT_GT(steps, 1u);
    for (const auto* tr : rt.traces()) {
      ASSERT_EQ(tr->dropped(), 0u);
      std::vector<tracing::Event> gpu;
      for (const auto& e : tr->snapshot()) {
        if (e.category != tracing::Category::Train) continue;
        for (const char* phase : kGpuPhases) {
          if (std::strcmp(e.name, phase) == 0) gpu.push_back(e);
        }
      }
      ASSERT_EQ(gpu.size(), 4 * steps) << "rank " << tr->rank();
      for (std::size_t i = 0; i < gpu.size(); ++i) {
        EXPECT_STREQ(gpu[i].name, kGpuPhases[i % 4]);
        EXPECT_LE(gpu[i].t0, gpu[i].t1);
        if (i % 4 == 3) {
          EXPECT_EQ(gpu[i].t0, gpu[i - 1].t1);
        }
        // One tenant's spans tile its GPU timeline.  Two tenants own two
        // GPUs, whose timelines may overlap each other.
        if (tenants == 1 && i > 0) {
          EXPECT_LE(gpu[i - 1].t1, gpu[i].t0)
              << "rank " << tr->rank() << " span " << i << " overlaps";
        }
      }
    }
  }
}

TEST_F(MultiTenantTest, LabeledCountersPartitionGlobalTraffic) {
  const auto specs = four_tenants();
  simmpi::Runtime rt(kRanks, machine_, 42);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    core::DDStore store(c, reader, client, store_config());
    TenantRegistry reg(store);
    for (const auto& s : specs) reg.admit(s);
    MultiTenantDriver driver(c, reg, machine_);
    (void)driver.run_epoch(0);
    // All loads went through tenants, so the labeled families must sum to
    // exactly the global counters (this rank's view).
    const auto& m = store.metrics();
    for (const std::string family :
         {"bytes_fetched", "cache_hits", "cache_misses", "cache_hit_bytes",
          "local_gets", "remote_gets", "lock_epochs"}) {
      const auto members = m.family_values(family);
      std::uint64_t labeled = 0;
      std::uint64_t global = 0;
      for (const auto& [label, value] : members) {
        (label.empty() ? global : labeled) += value;
      }
      EXPECT_EQ(labeled, global) << family;
    }
  });
}

TEST_F(MultiTenantTest, RealLossCurvesBitIdenticalSoloVsInterleaved) {
  const auto reader = cff_reader();
  train::RealTrainerConfig base;
  base.gnn.input_dim = 6;  // AISD feature width
  base.gnn.hidden = 4;
  base.gnn.pna_layers = 1;
  base.gnn.fc_layers = 1;
  base.gnn.output_dim = 1;
  base.local_batch = 4;
  base.optimizer.lr = 3e-3;
  constexpr std::uint64_t kEpochs = 2;

  TenantSpec alice;
  alice.name = "alice";
  alice.mount_samples = kSamples / 2;
  alice.seed = 31;
  TenantSpec bob;
  bob.name = "bob";
  bob.mount_first = kSamples / 2;
  bob.mount_samples = kSamples / 2;
  bob.seed = 32;
  bob.weight = 3.0;

  // Solo runs: each tenant alone on a fresh store, plain run_epoch.
  std::vector<std::vector<double>> solo_losses(2);
  for (int which = 0; which < 2; ++which) {
    simmpi::Runtime rt(kRanks, machine_, 42);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, reader, client, store_config());
      TenantRegistry reg(store);
      TenantContext& t = reg.admit(which == 0 ? alice : bob);
      train::RealTrainerConfig cfg = base;
      cfg.seed = t.spec().seed;
      train::RealTrainer trainer(c, t.backend(), cfg);
      std::vector<double> losses;
      for (std::uint64_t e = 0; e < kEpochs; ++e) {
        const auto r = trainer.run_epoch(e);
        losses.push_back(r.train_loss);
        losses.push_back(r.val_loss);
      }
      if (c.rank() == 0) solo_losses[static_cast<std::size_t>(which)] = losses;
    });
  }

  // Interleaved: both tenants share one store; the driver's arbiter
  // (with bob weighted 3x) interleaves their steps.
  std::vector<std::vector<double>> shared_losses(2);
  {
    simmpi::Runtime rt(kRanks, machine_, 42);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, reader, client, store_config());
      TenantRegistry reg(store);
      TenantContext& ta = reg.admit(alice);
      TenantContext& tb = reg.admit(bob);
      train::RealTrainerConfig ca = base;
      ca.seed = ta.spec().seed;
      train::RealTrainerConfig cb = base;
      cb.seed = tb.spec().seed;
      train::RealTrainer tra(c, ta.backend(), ca);
      train::RealTrainer trb(c, tb.backend(), cb);
      MultiTenantDriver driver(c, reg, machine_);
      std::vector<std::vector<double>> losses(2);
      for (std::uint64_t e = 0; e < kEpochs; ++e) {
        const auto results = driver.run_real_epoch(e, {&tra, &trb});
        for (int k = 0; k < 2; ++k) {
          losses[static_cast<std::size_t>(k)].push_back(
              results[static_cast<std::size_t>(k)].train_loss);
          losses[static_cast<std::size_t>(k)].push_back(
              results[static_cast<std::size_t>(k)].val_loss);
        }
      }
      if (c.rank() == 0) shared_losses = losses;
    });
  }

  // Bit-identical, not approximately equal.
  EXPECT_EQ(solo_losses[0], shared_losses[0]) << "alice";
  EXPECT_EQ(solo_losses[1], shared_losses[1]) << "bob";
}

TEST_F(MultiTenantTest, GreedyTenantCannotStarveVictim) {
  QosPolicy policy;
  policy.starvation_bound = 8;
  policy.max_burst = 4;

  TenantSpec greedy;
  greedy.name = "greedy";
  greedy.local_batch = 16;
  greedy.seed = 41;
  greedy.weight = 100.0;
  TenantSpec victim;
  victim.name = "victim";
  victim.local_batch = 4;
  victim.seed = 42;
  victim.weight = 1.0;

  const auto solo = run_driver({victim}, 2, policy);
  const auto shared = run_driver({greedy, victim}, 2, policy);
  ASSERT_EQ(shared.size(), 2u);

  // The victim made progress, its wait never exceeded the bound, and its
  // p99 fetch latency stayed within a small factor of the solo run's.
  EXPECT_GT(shared[1].global_samples, 0u);
  EXPECT_LE(shared[1].max_wait_grants, policy.starvation_bound);
  EXPECT_GT(solo[0].p99_fetch_s, 0.0);
  EXPECT_LE(shared[1].p99_fetch_s, 3.0 * solo[0].p99_fetch_s)
      << "victim p99 " << shared[1].p99_fetch_s << " vs solo "
      << solo[0].p99_fetch_s;
  // Both tenants complete their epochs — weight shapes the interleaving
  // order (covered by the arbiter unit tests), never total progress.
  EXPECT_GT(shared[0].global_samples, 0u);
}

}  // namespace
}  // namespace dds::tenant
