// Multi-tenant serving: N concurrent training jobs over one DDStore.
//
// Sweeps tenant count x replication width x cache capacity x QoS policy
// and reports, per cell, the aggregate samples/s across tenants plus each
// tenant's p50/p99 fetch latency, served bytes, and worst arbiter wait.
// Tenants share the store, its cache, the serving CPU, and the network;
// each owns its accelerators (see src/tenant/driver.hpp).
//
// stdout is a single JSON document (CI validates it with json.tool);
// human-readable progress goes to stderr.
//
// --smoke (CI bench-smoke job) shrinks the sweep and exits nonzero unless
//   (a) under 4-tenant weighted round-robin, every tenant's p99 fetch
//       latency stays within kSmokeP99Ratio of its solo-run p99,
//   (b) no tenant's arbiter wait ever exceeds the starvation bound, even
//       with one tenant weighted 100x,
//   (c) every tenant's served bytes in the shared run are byte-identical
//       to its solo run (the isolation invariant), and
//   (d) a real-GNN loss curve trained through a tenant mount interleaved
//       with a second tenant is bit-identical to the same trainer solo.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "tenant/driver.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

// Victim p99 under 4-way sharing vs solo.  Measured ~1.0x (WRR grants are
// rank-synchronized; inflation comes only from cache competition); pinned
// with headroom so cost-model tuning doesn't flap the gate.
constexpr double kSmokeP99Ratio = 2.0;

const char* policy_name(tenant::QosPolicyKind kind) {
  return kind == tenant::QosPolicyKind::WeightedRoundRobin ? "wrr" : "rr";
}

std::vector<tenant::TenantSpec> make_specs(int tenants, std::uint64_t batch) {
  std::vector<tenant::TenantSpec> specs(static_cast<std::size_t>(tenants));
  for (int k = 0; k < tenants; ++k) {
    auto& s = specs[static_cast<std::size_t>(k)];
    s.name = "job" + std::to_string(k);
    s.local_batch = batch;
    s.seed = 100 + static_cast<std::uint64_t>(k);
    s.weight = (k == 0) ? 2.0 : 1.0;  // one production job, N-1 batch jobs
  }
  return specs;
}

struct CellResult {
  double aggregate_throughput = 0;
  std::vector<tenant::TenantEpochReport> reports;
};

CellResult run_cell(StagedData& data, const model::MachineConfig& machine,
                    int nranks, const std::vector<tenant::TenantSpec>& specs,
                    int width, std::uint64_t cache_bytes,
                    tenant::QosPolicy policy, int epochs) {
  data.fs().reset_time_state();
  CellResult out;
  simmpi::Runtime rt(nranks, machine, /*seed=*/42);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStoreConfig store_cfg;
    store_cfg.width = width;
    store_cfg.cache_capacity_bytes = cache_bytes;
    core::DDStore store(comm, data.cff(), client, store_cfg);
    tenant::TenantRegistry registry(store);
    for (const auto& s : specs) registry.admit(s);
    tenant::DriverConfig dcfg;
    dcfg.input_dim = data.input_dim();
    dcfg.policy = policy;
    tenant::MultiTenantDriver driver(comm, registry, machine, dcfg);
    std::vector<tenant::TenantEpochReport> last;
    for (int e = 0; e < epochs; ++e) {
      last = driver.run_epoch(static_cast<std::uint64_t>(e));
    }
    if (comm.rank() == 0) out.reports = last;
  });
  double total_samples = 0;
  double slowest = 0;
  for (const auto& r : out.reports) {
    total_samples += static_cast<double>(r.global_samples);
    slowest = std::max(slowest, r.epoch_seconds);
  }
  out.aggregate_throughput = slowest > 0 ? total_samples / slowest : 0.0;
  return out;
}

std::string cell_json(int tenants, int width, std::uint64_t cache_bytes,
                      tenant::QosPolicyKind policy, const CellResult& cell) {
  std::string json = "    {\"tenants\": " + std::to_string(tenants) +
                     ", \"width\": " + std::to_string(width) +
                     ", \"cache_mib\": " +
                     std::to_string(cache_bytes / (1024 * 1024)) +
                     ", \"policy\": \"" + policy_name(policy) + "\"" +
                     ", \"aggregate_samples_per_s\": " +
                     fmt(cell.aggregate_throughput, 2) + ",\n" +
                     "     \"per_tenant\": [";
  for (std::size_t k = 0; k < cell.reports.size(); ++k) {
    const auto& r = cell.reports[k];
    if (k > 0) json += ", ";
    json += "\n      {\"name\": \"" + r.name + "\"" +
            ", \"samples_per_s\": " + fmt(r.throughput, 2) +
            ", \"p50_fetch_s\": " + fmt(r.p50_fetch_s, 6) +
            ", \"p99_fetch_s\": " + fmt(r.p99_fetch_s, 6) +
            ", \"served_bytes\": " + std::to_string(r.served_bytes) +
            ", \"cache_hits\": " + std::to_string(r.cache_hits) +
            ", \"lock_epochs\": " + std::to_string(r.lock_epochs) +
            ", \"max_wait_grants\": " + std::to_string(r.max_wait_grants) +
            "}";
  }
  json += "]}";
  return json;
}

// ---- Convergence identity (smoke part d) ------------------------------------
//
// Two tenants, two real trainers: the solo curve of each must be
// bit-identical to its curve when the driver interleaves both through one
// shared store.  Same property tests/tenant/multitenant_test.cpp pins;
// repeated here at bench scale so the gate travels with the bench.

struct EpochPoint {
  double train = 0, val = 0;
  bool operator==(const EpochPoint&) const = default;
};

std::vector<EpochPoint> run_real_curve(StagedData& data,
                                       const model::MachineConfig& machine,
                                       const tenant::TenantSpec& spec,
                                       const tenant::TenantSpec* other,
                                       int epochs) {
  constexpr int kRanks = 2;
  data.fs().reset_time_state();
  std::vector<EpochPoint> curve;
  simmpi::Runtime rt(kRanks, machine, 42);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStoreConfig store_cfg;
    store_cfg.width = kRanks;
    core::DDStore store(comm, data.cff(), client, store_cfg);
    tenant::TenantRegistry registry(store);
    tenant::TenantContext& mine = registry.admit(spec);
    tenant::TenantContext* peer =
        other != nullptr ? &registry.admit(*other) : nullptr;

    train::RealTrainerConfig cfg;
    cfg.gnn.input_dim = data.input_dim();
    cfg.gnn.hidden = 8;
    cfg.gnn.pna_layers = 1;
    cfg.gnn.fc_layers = 1;
    cfg.gnn.output_dim = data.dataset().make(0).target_dim();
    cfg.local_batch = 4;
    cfg.optimizer.lr = 1e-3;
    cfg.seed = spec.seed;
    train::RealTrainer trainer(comm, mine.backend(), cfg);

    std::unique_ptr<train::RealTrainer> peer_trainer;
    std::unique_ptr<tenant::MultiTenantDriver> driver;
    if (peer != nullptr) {
      train::RealTrainerConfig pcfg = cfg;
      pcfg.seed = peer->spec().seed;
      peer_trainer = std::make_unique<train::RealTrainer>(
          comm, peer->backend(), pcfg);
      driver = std::make_unique<tenant::MultiTenantDriver>(comm, registry,
                                                           machine);
    }
    for (int epoch = 0; epoch < epochs; ++epoch) {
      train::TrainEpochResult r;
      if (driver != nullptr) {
        const auto results = driver->run_real_epoch(
            static_cast<std::uint64_t>(epoch),
            {&trainer, peer_trainer.get()});
        r = results[0];
      } else {
        r = trainer.run_epoch(static_cast<std::uint64_t>(epoch));
      }
      if (comm.rank() == 0) curve.push_back({r.train_loss, r.val_loss});
    }
  });
  return curve;
}

bool convergence_check(const model::MachineConfig& machine) {
  constexpr std::uint64_t kSamples = 256;
  constexpr int kEpochs = 3;
  StagedData data(machine, datagen::DatasetKind::AisdHomoLumo, kSamples,
                  /*nranks=*/2, /*with_pff=*/false, /*seed=*/5);
  tenant::TenantSpec alice;
  alice.name = "alice";
  alice.mount_samples = kSamples / 2;
  alice.local_batch = 4;
  alice.seed = 31;
  tenant::TenantSpec bob;
  bob.name = "bob";
  bob.mount_first = kSamples / 2;
  bob.mount_samples = kSamples / 2;
  bob.local_batch = 4;
  bob.seed = 32;
  bob.weight = 3.0;

  const auto solo = run_real_curve(data, machine, alice, nullptr, kEpochs);
  const auto shared = run_real_curve(data, machine, alice, &bob, kEpochs);
  if (solo != shared) {
    std::fprintf(stderr,
                 "SMOKE FAIL: tenant loss curve diverged from its solo run "
                 "under 2-tenant interleaving\n");
    return false;
  }
  std::fprintf(stderr,
               "smoke ok: tenant loss curve bit-identical solo vs "
               "interleaved over %d epochs\n",
               kEpochs);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const auto machine = model::perlmutter();

  const int nranks = smoke ? 4 : 8;
  const std::uint64_t batch = smoke ? 8 : 32;
  const int epochs = 2;
  const std::uint64_t num_samples = scaled_samples(
      nranks, batch * 4, /*min_steps=*/4, /*floor_samples=*/smoke ? 2'048
                                                                  : 8'192);
  const std::vector<int> tenant_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> widths =
      smoke ? std::vector<int>{2} : std::vector<int>{2, 4};
  const std::vector<std::uint64_t> caches =
      smoke ? std::vector<std::uint64_t>{64ull << 20}
            : std::vector<std::uint64_t>{0, 64ull << 20};
  const std::vector<tenant::QosPolicyKind> policies =
      smoke ? std::vector<tenant::QosPolicyKind>{
                  tenant::QosPolicyKind::WeightedRoundRobin}
            : std::vector<tenant::QosPolicyKind>{
                  tenant::QosPolicyKind::WeightedRoundRobin,
                  tenant::QosPolicyKind::RoundRobin};

  std::fprintf(stderr,
               "# Multi-tenant serving (%s, %d ranks, %llu samples)\n",
               machine.name.c_str(), nranks,
               static_cast<unsigned long long>(num_samples));

  StagedData data(machine, datagen::DatasetKind::AisdExDiscrete, num_samples,
                  nranks, /*with_pff=*/false);

  bool gate_ok = true;
  std::string json = "{\n  \"bench\": \"multitenant\",\n  \"cells\": [\n";
  bool first_cell = true;

  for (const int width : widths) {
    for (const std::uint64_t cache : caches) {
      for (const auto policy_kind : policies) {
        tenant::QosPolicy policy;
        policy.kind = policy_kind;

        // Solo baselines for the gates: each tenant of the widest cell,
        // alone on a fresh store.  Smoke-only (the full sweep reports the
        // shared cells themselves).
        const int max_tenants = tenant_counts.back();
        const auto all_specs = make_specs(max_tenants, batch);
        std::vector<CellResult> solos(all_specs.size());
        if (smoke) {
          for (std::size_t k = 0; k < all_specs.size(); ++k) {
            solos[k] = run_cell(data, machine, nranks, {all_specs[k]}, width,
                                cache, policy, epochs);
          }
        }

        for (const int tenants : tenant_counts) {
          const auto specs = make_specs(tenants, batch);
          const CellResult cell = run_cell(data, machine, nranks, specs,
                                           width, cache, policy, epochs);
          std::fprintf(stderr,
                       "  tenants=%d width=%d cache=%lluMiB policy=%s "
                       "aggregate=%.1f samples/s\n",
                       tenants, width,
                       static_cast<unsigned long long>(cache >> 20),
                       policy_name(policy_kind), cell.aggregate_throughput);
          if (!first_cell) json += ",\n";
          first_cell = false;
          json += cell_json(tenants, width, cache, policy_kind, cell);

          if (!smoke) continue;
          for (std::size_t k = 0; k < cell.reports.size(); ++k) {
            const auto& shared = cell.reports[k];
            const auto& solo = solos[k].reports[0];
            // Gate (c): isolation — shared run serves the exact bytes the
            // solo run does, cache competition notwithstanding.
            if (shared.served_bytes != solo.served_bytes) {
              std::fprintf(stderr,
                           "SMOKE FAIL: tenant %s served %llu bytes shared "
                           "vs %llu solo (isolation violated)\n",
                           shared.name.c_str(),
                           static_cast<unsigned long long>(
                               shared.served_bytes),
                           static_cast<unsigned long long>(
                               solo.served_bytes));
              gate_ok = false;
            }
            // Gate (b): starvation bound.
            if (shared.max_wait_grants > policy.starvation_bound) {
              std::fprintf(stderr,
                           "SMOKE FAIL: tenant %s waited %d grants "
                           "(bound %d)\n",
                           shared.name.c_str(), shared.max_wait_grants,
                           policy.starvation_bound);
              gate_ok = false;
            }
            // Gate (a): p99 inflation under 4-way sharing, WRR only.
            if (tenants == 4 &&
                policy_kind == tenant::QosPolicyKind::WeightedRoundRobin &&
                solo.p99_fetch_s > 0 &&
                shared.p99_fetch_s > kSmokeP99Ratio * solo.p99_fetch_s) {
              std::fprintf(stderr,
                           "SMOKE FAIL: tenant %s p99 %.3gs vs solo %.3gs "
                           "exceeds %.1fx bound\n",
                           shared.name.c_str(), shared.p99_fetch_s,
                           solo.p99_fetch_s, kSmokeP99Ratio);
              gate_ok = false;
            }
          }
        }
      }
    }
  }

  json += "\n  ],\n  \"smoke\": " + std::string(smoke ? "true" : "false") +
          "\n}\n";
  std::fputs(json.c_str(), stdout);

  if (!smoke) return 0;
  if (!convergence_check(machine)) gate_ok = false;
  return gate_ok ? 0 : 1;
}
