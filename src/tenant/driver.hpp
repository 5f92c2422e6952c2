// MultiTenantDriver: N interleaved training jobs in one simulation.
//
// Each rank steps every admitted tenant's workload as one interleaved
// fiber timeline: the QosArbiter decides (identically on every rank —
// see arbiter.hpp's determinism contract) which tenant's step is issued
// next, the step's batch loads through the tenant's mounted backend
// (shared store + cache, per-tenant attribution), and the rest of the
// step runs on the tenant's own train::StepTimeline — the trainer's step
// model, with its phase charges and `train` spans.  Tenant jobs own their
// accelerators; what they share is the store, the serving CPU, and the
// network.
//
// Per-epoch, the driver reports per tenant: wall epoch seconds (what the
// tenant experienced under sharing), throughput, p50/p99 fetch latency
// (merged across ranks), labeled counter deltas from one
// core::EpochCounters (bytes, cache hits, lock epochs), the arbiter's
// starvation metric, and measured transport service.  bench_multitenant
// pins fairness gates on these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tenant/arbiter.hpp"
#include "tenant/tenant.hpp"
#include "train/real_trainer.hpp"
#include "train/sim_trainer.hpp"

namespace dds::tenant {

struct DriverConfig {
  /// GNN dimensions for the simulated compute/gradient model (shared by
  /// all tenants; per-tenant model scale is future work).
  std::uint64_t input_dim = 6;
  std::uint64_t output_dim = 1;
  QosPolicy policy;
};

/// One tenant's view of one epoch, rank-identical.
struct TenantEpochReport {
  int tenant = 0;
  std::string name;
  std::uint64_t epoch = 0;
  std::uint64_t steps = 0;
  std::uint64_t global_samples = 0;
  double epoch_seconds = 0;  ///< max across ranks, epoch start -> last step
  double throughput = 0;     ///< samples / second under sharing
  double p50_fetch_s = 0;    ///< merged across ranks, this tenant's loads
  double p99_fetch_s = 0;
  std::uint64_t bytes_fetched = 0;   ///< summed across ranks (labeled delta)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_hit_bytes = 0;
  std::uint64_t lock_epochs = 0;
  /// bytes_fetched + cache_hit_bytes: every payload byte served to the
  /// tenant, however it arrived — the solo-vs-shared isolation invariant.
  std::uint64_t served_bytes = 0;
  int max_wait_grants = 0;           ///< arbiter starvation metric
  std::uint64_t arbiter_service = 0; ///< measured lock epochs, all ranks
};

class MultiTenantDriver {
 public:
  /// All tenants must already be admitted; every rank constructs the
  /// driver with the same registry state (the arbiter snapshot happens
  /// here).  References must outlive the driver.
  MultiTenantDriver(simmpi::Comm& comm, TenantRegistry& tenants,
                    const model::MachineConfig& machine,
                    DriverConfig config = {});
  ~MultiTenantDriver();
  MultiTenantDriver(const MultiTenantDriver&) = delete;
  MultiTenantDriver& operator=(const MultiTenantDriver&) = delete;

  /// Collective: one interleaved epoch of every tenant's simulated
  /// workload.  Every rank returns identical reports (index = tenant id).
  std::vector<TenantEpochReport> run_epoch(std::uint64_t epoch);

  /// Collective: one interleaved epoch of N *real* trainers (math and all),
  /// one per tenant in id order, each driving its tenant's mounted backend.
  /// Only execution order interleaves — per-tenant loss curves stay
  /// bit-identical to running each trainer solo.
  std::vector<train::TrainEpochResult> run_real_epoch(
      std::uint64_t epoch, const std::vector<train::RealTrainer*>& trainers);

 private:
  /// TransportGate adapter: charges measured lock epochs to the arbiter's
  /// per-tenant service counter (observability only).
  class GateAdapter final : public core::fetch::TransportGate {
   public:
    GateAdapter(QosArbiter& arbiter, int tenant)
        : arbiter_(&arbiter), tenant_(tenant) {}
    void on_lock_epoch(int /*target*/) override {
      arbiter_->charge_service(tenant_, 1);
    }

   private:
    QosArbiter* arbiter_;
    int tenant_;
  };

  /// The one grant loop: the arbiter picks tenant k and `step(k, s)` runs
  /// its step s, until every tenant k has run steps[k] steps.
  template <typename StepFn>
  void interleave(const std::vector<std::uint64_t>& steps, StepFn step);

  simmpi::Comm comm_;
  TenantRegistry* tenants_;
  QosArbiter arbiter_;
  std::vector<GateAdapter> gates_;  ///< one per tenant, wired into scopes
  /// One per tenant: each job steps its own GPU timeline.
  std::vector<train::StepTimeline> timelines_;
};

}  // namespace dds::tenant
