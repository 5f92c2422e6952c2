#include "train/sim_trainer.hpp"

#include <deque>

#include "common/tracing/tracer.hpp"
#include "core/epoch_counters.hpp"

namespace dds::train {

void StepTimeline::charge(Phase phase, const char* span, double t0, double t1,
                          double seconds, tracing::EventArgs args) {
  profile_.add(phase, seconds);
  if (tracer_ != nullptr) {
    tracer_->record(tracing::Category::Train, span, t0, t1, args);
  }
}

void StepTimeline::run(const graph::GraphBatch& batch,
                       std::uint64_t nominal_batch_payload,
                       PrefetchingLoader* overlap) {
  auto& clock = comm_.clock();

  // ---- CPU: collate ----
  const model::BatchShape shape{batch.num_graphs, batch.num_nodes,
                                batch.num_edges(), output_dim_};
  const double t_batch =
      compute_.batching_time(shape, nominal_batch_payload);
  clock.advance(t_batch);
  const double cpu_done = clock.now();
  charge(Phase::Batch, "collate", cpu_done - t_batch, cpu_done, t_batch);

  // ---- GPU: forward + backward ----
  const double fb = compute_.forward_backward_time(shape);
  double gpu_start = 0, gpu_done = 0;
  if (overlap != nullptr) {
    // The loader refills underneath the compute window.  Fetch overhang
    // past the window is GPU idle time waiting on data: it counts as
    // Load, and its time is already covered by the fetch's own spans.
    gpu_start = cpu_done;
    overlap->compute_window(fb);
    gpu_done = clock.now();
    const double window = gpu_done - gpu_start;
    if (window > fb) profile_.add(Phase::Load, window - fb);
  } else {
    gpu_start = std::max(gpu_free_, cpu_done);
    gpu_done = gpu_start + fb;
  }
  charge(Phase::Forward, "forward", gpu_start, gpu_start + fb / 3.0,
         fb / 3.0);
  charge(Phase::Backward, "backward", gpu_start + fb / 3.0, gpu_start + fb,
         2.0 * fb / 3.0);

  // ---- gradient all-reduce: starts when the slowest rank finishes ----
  const double comm_end = comm_.runtime().network().allreduce_time(
      comm_.size(), grad_bytes_,
      comm_.allreduce_untimed(gpu_done, simmpi::Op::Max));
  tracing::EventArgs comm_args;
  comm_args.bytes = static_cast<std::int64_t>(grad_bytes_);
  charge(Phase::GradComm, "allreduce_grad", gpu_done, comm_end,
         comm_end - gpu_done, comm_args);

  // ---- optimizer ----
  const double t_opt = compute_.optimizer_time(grad_bytes_);
  gpu_free_ = comm_end + t_opt;
  charge(Phase::Optimizer, "optimizer", comm_end, gpu_free_, t_opt);
  if (overlap != nullptr) clock.advance_to(gpu_free_);
}

SimulatedTrainer::SimulatedTrainer(simmpi::Comm& comm, DataBackend& backend,
                                   Sampler& sampler,
                                   const model::MachineConfig& machine,
                                   SimTrainerConfig config)
    : comm_(comm),
      backend_(&backend),
      sampler_(&sampler),
      config_(config),
      loader_(backend, sampler, comm.clock()),
      timeline_(comm, machine, config.input_dim, config.output_dim) {
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
  const PhaseProfile profile_at_start = timeline_.profile();
  core::EpochCounters counters(backend_->metrics());
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
  report.mean_profile =
      timeline_.profile().diff(profile_at_start).allreduce_mean(comm_);

  const std::vector<std::uint64_t>& summed = counters.reduce(comm_);
  report.metrics.reserve(summed.size());
  for (std::size_t i = 0; i < summed.size(); ++i) {
    report.metrics.push_back(
        EpochReport::MetricSample{counters.name(i), summed[i]});
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
  timeline_.begin_epoch();
  std::deque<double> gpu_free_history;  // Pipelined back-pressure window
  const std::uint64_t steps = sampler_->steps_per_epoch();
  const std::uint64_t nominal_batch_payload =
      sampler_->local_batch() * backend_->nominal_sample_bytes();

  for (std::uint64_t step = 0; step < steps; ++step) {
    timeline_.align_cpu();
    // Pipelined bounded prefetch: the CPU may not start batch s until the
    // GPU has finished batch s - prefetch_depth (buffer back-pressure).
    if (!ploader_ && gpu_free_history.size() >=
                         static_cast<std::size_t>(config_.prefetch_depth)) {
      clock.advance_to(gpu_free_history.front());
      gpu_free_history.pop_front();
    }

    // ---- CPU: load (a staged Prefetching batch is free here) ----
    const double t_load0 = clock.now();
    const auto batch = ploader_ ? ploader_->next() : loader_.next();
    DDS_CHECK(batch.has_value());
    timeline_.charge(Phase::Load, "load", t_load0, clock.now(),
                     clock.now() - t_load0);

    timeline_.run(*batch, nominal_batch_payload,
                  ploader_ ? &*ploader_ : nullptr);
    if (!ploader_) gpu_free_history.push_back(timeline_.gpu_free());
  }
  timeline_.drain();
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
