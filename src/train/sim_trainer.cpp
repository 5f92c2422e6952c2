#include "train/sim_trainer.hpp"

#include <deque>

#include "common/tracing/tracer.hpp"

namespace dds::train {

SimulatedTrainer::SimulatedTrainer(simmpi::Comm& comm, DataBackend& backend,
                                   Sampler& sampler,
                                   const model::MachineConfig& machine,
                                   SimTrainerConfig config)
    : comm_(comm),
      backend_(&backend),
      sampler_(&sampler),
      compute_(machine),
      config_(config),
      loader_(backend, sampler, comm.clock()),
      grad_bytes_(model::hydragnn_param_bytes(config.input_dim,
                                              config.output_dim)) {
  if (config.loader_mode == LoaderMode::Prefetching) {
    DDS_CHECK(config.prefetch_depth >= 0);
    ploader_.emplace(backend, sampler, comm_.clock(),
                     PrefetchConfig{config.prefetch_depth,
                                    config.non_overlap_fraction});
  } else {
    DDS_CHECK(config.prefetch_depth >= 1);
  }
}

EpochReport SimulatedTrainer::run_epoch(std::uint64_t epoch) {
  auto& clock = comm_.clock();

  comm_.barrier();  // all ranks enter the epoch together
  const double epoch_begin = clock.now();
  const PhaseProfile profile_at_start = profile_;
  // Generic metric accounting: snapshot the backend's registry, diff at the
  // epoch's end.  Registry layouts are rank-identical (registration-order
  // contract), so the per-rank delta vectors can be summed elementwise.
  const MetricsRegistry* registry = backend_->metrics();
  const std::vector<std::uint64_t> counters_at_start =
      registry == nullptr ? std::vector<std::uint64_t>{}
                          : registry->counter_values();
  const double hidden_at_start =
      ploader_ ? ploader_->overlap_hidden_seconds() : 0.0;

  if (ploader_) {
    ploader_->begin_epoch(epoch, comm_);
  } else {
    loader_.begin_epoch(epoch, comm_);
  }
  run_steps();

  const double local_duration = clock.now() - epoch_begin;
  const double epoch_seconds =
      comm_.allreduce(local_duration, simmpi::Op::Max);

  const std::uint64_t steps = sampler_->steps_per_epoch();
  EpochReport report;
  report.epoch = epoch;
  report.epoch_seconds = epoch_seconds;
  report.global_samples = steps * sampler_->local_batch() *
                          static_cast<std::uint64_t>(comm_.size());
  report.throughput =
      epoch_seconds > 0
          ? static_cast<double>(report.global_samples) / epoch_seconds
          : 0.0;
  report.mean_profile = profile_.diff(profile_at_start).allreduce_mean(comm_);

  // Metric counters: this rank's delta over the epoch, summed across ranks
  // elementwise (untimed — bookkeeping must not perturb the time model).
  // The reduction is collective, so every rank participates even when its
  // backend keeps no registry (it contributes an empty span).
  std::vector<std::uint64_t> delta;
  if (registry != nullptr) {
    delta = registry->counter_values();
    DDS_CHECK_MSG(delta.size() == counters_at_start.size(),
                  "metrics registered mid-epoch break delta accounting");
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] -= counters_at_start[i];
    }
  }
  comm_.allreduce_untimed(std::span<std::uint64_t>(delta), simmpi::Op::Sum);
  if (registry != nullptr) {
    const auto& names = registry->counter_names();
    report.metrics.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      report.metrics.push_back(EpochReport::MetricSample{names[i], delta[i]});
    }
  }
  report.overlap_hidden_s = comm_.allreduce_untimed(
      ploader_ ? ploader_->overlap_hidden_seconds() - hidden_at_start : 0.0,
      simmpi::Op::Sum);
  // Epoch boundary: no fetch is in flight on any rank, so the hook may run
  // collective work (the elastic driver reshards the backend here).
  if (epoch_end_hook_) epoch_end_hook_(report);
  return report;
}

void SimulatedTrainer::run_steps() {
  auto& clock = comm_.clock();
  auto& net = comm_.runtime().network();
  tracing::EventTracer* const tr = comm_.tracer();
  // The one sink for a phase: its PhaseProfile charge and its Train span.
  // The profile takes the model's `seconds`, never t1 - t0, so its sums are
  // exactly the cost model's charges.  Spans carry explicit [t0, t1]: the
  // modeled GPU timeline runs ahead of the CPU clock in Pipelined mode, so
  // they cannot come from RAII guards.
  const auto charge = [&](Phase phase, const char* span, double t0, double t1,
                          double seconds, tracing::EventArgs args = {}) {
    profile_.add(phase, seconds);
    if (tr != nullptr) {
      tr->record(tracing::Category::Train, span, t0, t1, args);
    }
  };

  double gpu_free = clock.now();
  std::deque<double> gpu_done_history;  // Pipelined back-pressure window
  const std::uint64_t steps = sampler_->steps_per_epoch();
  const std::uint64_t nominal_batch_payload =
      sampler_->local_batch() * backend_->nominal_sample_bytes();

  for (std::uint64_t step = 0; step < steps; ++step) {
    // Cross-rank CPU sync: the previous step's gradient all-reduce finished
    // at the same instant on every rank, so loader timelines re-align here.
    // (This also keeps virtual-clock skew bounded, which the shared-resource
    // queueing model requires — see BusyResource's contract.)
    clock.advance_to(comm_.allreduce_untimed(clock.now(), simmpi::Op::Max));
    // Pipelined bounded prefetch: the CPU may not start batch s until the
    // GPU has finished batch s - prefetch_depth (buffer back-pressure).
    if (!ploader_ && gpu_done_history.size() >=
                         static_cast<std::size_t>(config_.prefetch_depth)) {
      clock.advance_to(gpu_done_history.front());
      gpu_done_history.pop_front();
    }

    // ---- CPU: load (a staged Prefetching batch is free here) ----
    const double t_load0 = clock.now();
    const auto batch = ploader_ ? ploader_->next() : loader_.next();
    DDS_CHECK(batch.has_value());
    charge(Phase::Load, "load", t_load0, clock.now(), clock.now() - t_load0);

    // ---- CPU: collate ----
    const model::BatchShape shape{batch->num_graphs, batch->num_nodes,
                                  batch->num_edges(), config_.output_dim};
    const double t_batch = compute_.batching_time(shape,
                                                  nominal_batch_payload);
    clock.advance(t_batch);
    const double cpu_done = clock.now();
    charge(Phase::Batch, "collate", cpu_done - t_batch, cpu_done, t_batch);

    // ---- GPU: forward + backward ----
    const double fb = compute_.forward_backward_time(shape);
    double gpu_start = 0, gpu_done = 0;
    if (ploader_) {
      // The loader refills underneath the compute window.  Fetch overhang
      // past the window is GPU idle time waiting on data: it counts as
      // Load, and its time is already covered by the fetch's own spans.
      gpu_start = cpu_done;
      ploader_->compute_window(fb);
      gpu_done = clock.now();
      const double window = gpu_done - gpu_start;
      if (window > fb) profile_.add(Phase::Load, window - fb);
    } else {
      // Overlapped with the CPU work of later steps.
      gpu_start = std::max(gpu_free, cpu_done);
      gpu_done = gpu_start + fb;
    }
    charge(Phase::Forward, "forward", gpu_start, gpu_start + fb / 3.0,
           fb / 3.0);
    charge(Phase::Backward, "backward", gpu_start + fb / 3.0, gpu_start + fb,
           2.0 * fb / 3.0);

    // ---- gradient all-reduce: starts when the slowest rank finishes ----
    const double comm_end = net.allreduce_time(
        comm_.size(), grad_bytes_,
        comm_.allreduce_untimed(gpu_done, simmpi::Op::Max));
    tracing::EventArgs comm_args;
    comm_args.bytes = static_cast<std::int64_t>(grad_bytes_);
    charge(Phase::GradComm, "allreduce_grad", gpu_done, comm_end,
           comm_end - gpu_done, comm_args);

    // ---- optimizer ----
    const double t_opt = compute_.optimizer_time(grad_bytes_);
    gpu_free = comm_end + t_opt;
    charge(Phase::Optimizer, "optimizer", comm_end, gpu_free, t_opt);
    if (ploader_) {
      clock.advance_to(gpu_free);
    } else {
      gpu_done_history.push_back(gpu_free);
    }
  }

  // The epoch ends when this rank's GPU pipeline drains.
  clock.advance_to(gpu_free);
}

LatencyRecorder SimulatedTrainer::gather_latencies() {
  const auto& mine = sample_latencies().raw();
  const auto all =
      comm_.gatherv(std::span<const double>(mine.data(), mine.size()), 0);
  LatencyRecorder out(all.size());
  for (const double v : all) out.add(v);
  return out;
}

}  // namespace dds::train
