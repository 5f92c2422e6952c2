#include "tenant/driver.hpp"

#include "core/epoch_counters.hpp"
#include "graph/batch.hpp"

namespace dds::tenant {

MultiTenantDriver::MultiTenantDriver(simmpi::Comm& comm,
                                     TenantRegistry& tenants,
                                     const model::MachineConfig& machine,
                                     DriverConfig config)
    : comm_(comm), tenants_(&tenants), arbiter_(config.policy) {
  DDS_CHECK_MSG(tenants.size() > 0, "driver needs at least one tenant");
  gates_.reserve(tenants.size());
  timelines_.reserve(tenants.size());
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    TenantContext& t = tenants.at(static_cast<int>(k));
    // Arbiter inputs are rank-identical by construction: admission order,
    // spec weight, and NOMINAL step demand.  Never feed measured values in.
    arbiter_.add_tenant(t.spec().weight, t.step_demand_bytes());
    gates_.emplace_back(arbiter_, static_cast<int>(k));
    t.scope().gate = &gates_.back();  // reserved: addresses stay stable
    timelines_.emplace_back(comm_, machine, config.input_dim,
                            config.output_dim);
  }
}

MultiTenantDriver::~MultiTenantDriver() {
  // Unwire the gates: scopes may outlive the driver.
  for (std::size_t k = 0; k < tenants_->size(); ++k) {
    tenants_->at(static_cast<int>(k)).scope().gate = nullptr;
  }
}

template <typename StepFn>
void MultiTenantDriver::interleave(const std::vector<std::uint64_t>& steps,
                                   StepFn step) {
  arbiter_.begin_epoch();
  const std::size_t n = steps.size();
  for (std::size_t k = 0; k < n; ++k) {
    arbiter_.set_runnable(static_cast<int>(k), steps[k] > 0);
  }
  // Every rank computes the identical grant sequence (arbiter determinism
  // contract), so the collectives inside a step always pair up across
  // ranks.
  std::vector<std::uint64_t> cursor(n, 0);
  while (arbiter_.any_runnable()) {
    const int k = arbiter_.next();
    std::uint64_t& sk = cursor[static_cast<std::size_t>(k)];
    step(k, sk);
    if (++sk >= steps[static_cast<std::size_t>(k)]) {
      arbiter_.set_runnable(k, false);
    }
  }
}

std::vector<TenantEpochReport> MultiTenantDriver::run_epoch(
    std::uint64_t epoch) {
  auto& clock = comm_.clock();
  const int n = static_cast<int>(tenants_->size());

  comm_.barrier();
  const double epoch_begin = clock.now();
  for (train::StepTimeline& timeline : timelines_) timeline.begin_epoch();
  // All tenants' labeled counters live in ONE shared registry, so one
  // snapshot covers every tenant.
  core::EpochCounters counters(&tenants_->store().metrics());

  std::vector<std::uint64_t> steps(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> service_at_start(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < n; ++k) {
    TenantContext& t = tenants_->at(k);
    t.sampler().begin_epoch(epoch, comm_);
    t.latencies() = LatencyRecorder{};
    steps[static_cast<std::size_t>(k)] = t.sampler().steps_per_epoch();
    service_at_start[static_cast<std::size_t>(k)] = arbiter_.service(k);
  }

  interleave(steps, [&](int k, std::uint64_t step) {
    TenantContext& t = tenants_->at(k);
    train::StepTimeline& timeline = timelines_[static_cast<std::size_t>(k)];
    timeline.align_cpu();
    // Load through the tenant's mounted backend; the rest of the step runs
    // on the tenant's own GPU timeline.
    const auto samples = t.backend().load_batch(t.sampler().batch_ids(step));
    timeline.run(graph::GraphBatch::collate(samples),
                 t.spec().local_batch * t.backend().nominal_sample_bytes());
  });
  // The rank's epoch ends when every tenant's pipeline drains.
  for (train::StepTimeline& timeline : timelines_) timeline.drain();

  // ---- reporting (untimed exchanges; must not perturb the time model) ----
  counters.reduce(comm_);
  std::vector<TenantEpochReport> reports(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    TenantContext& t = tenants_->at(k);
    TenantEpochReport& r = reports[static_cast<std::size_t>(k)];
    r.tenant = k;
    r.name = t.spec().name;
    r.epoch = epoch;
    r.steps = steps[static_cast<std::size_t>(k)];
    r.global_samples = r.steps * t.spec().local_batch *
                       static_cast<std::uint64_t>(comm_.size());

    // Wall time the tenant experienced: its last step's completion, maxed
    // across ranks (untimed exchange — the clock already drained).
    const double done = comm_.allreduce_untimed(
        timelines_[static_cast<std::size_t>(k)].gpu_free(), simmpi::Op::Max);
    r.epoch_seconds = done - epoch_begin;
    r.throughput = r.epoch_seconds > 0
                       ? static_cast<double>(r.global_samples) / r.epoch_seconds
                       : 0.0;

    // Fetch latencies attributed to this tenant, merged across ranks.
    const auto& mine = t.latencies().raw();
    const std::vector<double> all_lat = comm_.allgatherv_untimed(
        std::span<const double>(mine.data(), mine.size()));
    if (!all_lat.empty()) {
      LatencyRecorder merged(all_lat.size());
      for (const double v : all_lat) merged.add(v);
      r.p50_fetch_s = merged.percentile(50.0);
      r.p99_fetch_s = merged.percentile(99.0);
    }

    const MetricLabel label{"tenant", t.spec().name};
    const auto labeled = [&](const char* family) {
      return counters.metric(MetricsRegistry::labeled_name(family, label));
    };
    r.bytes_fetched = labeled("bytes_fetched");
    r.cache_hits = labeled("cache_hits");
    r.cache_misses = labeled("cache_misses");
    r.cache_hit_bytes = labeled("cache_hit_bytes");
    r.lock_epochs = labeled("lock_epochs");
    r.served_bytes = r.bytes_fetched + r.cache_hit_bytes;
    r.max_wait_grants = arbiter_.max_wait(k);

    r.arbiter_service = comm_.allreduce_untimed(
        arbiter_.service(k) - service_at_start[static_cast<std::size_t>(k)],
        simmpi::Op::Sum);
  }
  return reports;
}

std::vector<train::TrainEpochResult> MultiTenantDriver::run_real_epoch(
    std::uint64_t epoch, const std::vector<train::RealTrainer*>& trainers) {
  DDS_CHECK_MSG(trainers.size() == tenants_->size(),
                "one real trainer per tenant, in id order");
  comm_.barrier();
  std::vector<std::uint64_t> steps;
  for (train::RealTrainer* trainer : trainers) {
    trainer->begin_epoch(epoch);
    steps.push_back(trainer->train_steps());
  }
  // Only execution order interleaves, so each trainer's math is exactly
  // its solo math.
  interleave(steps, [&](int k, std::uint64_t step) {
    trainers[static_cast<std::size_t>(k)]->train_step(step);
  });
  std::vector<train::TrainEpochResult> results;
  for (train::RealTrainer* trainer : trainers) {
    results.push_back(trainer->finish_epoch(epoch));
  }
  return results;
}

}  // namespace dds::tenant
