// Simulated DDP training (the measurement harness for the paper's
// throughput, breakdown, and scaling figures).
//
// Per step, following Fig. 1 of the paper: the CPU loads and collates the
// batch (real sample movement, virtual time); GPU forward/backward and the
// optimizer are charged from the ComputeModel; gradients all-reduce across
// ranks (ring model).  StepTimeline is the one model of a step from its
// loaded batch on: SimulatedTrainer runs one, the tenant driver one per
// tenant.  CPU data preparation for step s+1 overlaps the GPU's step s up
// to a bounded prefetch depth, matching PyTorch's DataLoader pipelining
// the paper describes (§2.2) — so end-to-end time is max(CPU pipeline, GPU
// pipeline), and a loader slower than compute shows up as GPU-Comm stall,
// exactly the effect discussed around Fig. 5.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model/compute.hpp"
#include "train/loader.hpp"
#include "train/profiler.hpp"

namespace dds::train {

/// Which data-loading pipeline the trainer drives.
enum class LoaderMode {
  /// Per-sample DataLoader with GPU-timeline pipelining: the CPU loads
  /// batch s+1 while the GPU runs batch s, bounded by prefetch_depth
  /// back-pressure (PyTorch DataLoader semantics, §2.2).
  Pipelined,
  /// PrefetchingLoader: whole batches through DataBackend::load_batch
  /// (engaging DDStore's coalesced fetch planner), double-buffered so the
  /// fetch of batch k+1 hides under the compute window of batch k.
  Prefetching,
};

struct SimTrainerConfig {
  std::uint64_t input_dim = 6;
  /// Nominal head width (paper-scale; e.g. 37,500 for AISD-Ex smooth even
  /// when the materialized target is smaller).
  std::uint64_t output_dim = 1;
  LoaderMode loader_mode = LoaderMode::Pipelined;
  /// Pipelined: batches the CPU may run ahead of the GPU (>= 1).
  /// Prefetching: batches the loader stages ahead (0 = serial baseline).
  int prefetch_depth = 2;
  /// Prefetching only: fraction of an overlapped fetch/compute window that
  /// cannot hide (see PrefetchConfig::non_overlap_fraction).
  double non_overlap_fraction = 0.05;
};

/// One simulated DDP step from its loaded batch on: collate,
/// forward/backward, gradient all-reduce and optimizer, on this instance's
/// own GPU timeline.
class StepTimeline {
 public:
  StepTimeline(simmpi::Comm& comm, const model::MachineConfig& machine,
               std::uint64_t input_dim, std::uint64_t output_dim)
      : comm_(comm),
        compute_(machine),
        output_dim_(output_dim),
        grad_bytes_(model::hydragnn_param_bytes(input_dim, output_dim)) {}

  /// Starts an epoch: the GPU is idle from this rank's current time on.
  void begin_epoch() {
    tracer_ = comm_.tracer();
    gpu_free_ = comm_.clock().now();
  }

  /// Collective, before each step's load: the previous step's gradient
  /// all-reduce finished at the same instant on every rank, so CPU
  /// timelines re-align here.  (This also keeps virtual-clock skew
  /// bounded, which the shared-resource queueing model requires — see
  /// BusyResource's contract.)
  void align_cpu() {
    auto& clock = comm_.clock();
    clock.advance_to(comm_.allreduce_untimed(clock.now(), simmpi::Op::Max));
  }

  /// Collective: the rest of the step.  Without `overlap` the GPU starts
  /// at the later of its previous step's end and the collate's end, and
  /// runs ahead of the CPU.  With it, forward/backward is the prefetching
  /// loader's compute window, and the CPU waits for the optimizer.
  void run(const graph::GraphBatch& batch,
           std::uint64_t nominal_batch_payload,
           PrefetchingLoader* overlap = nullptr);

  /// The epoch ends when this rank's GPU pipeline drains.
  void drain() { comm_.clock().advance_to(gpu_free_); }

  /// The one sink for a phase: its PhaseProfile charge and its `train`
  /// span.  The profile takes the model's `seconds`, never t1 - t0, so its
  /// sums are exactly the cost model's charges.  Spans carry explicit
  /// [t0, t1]: the GPU timeline may run ahead of the CPU clock, so they
  /// cannot come from RAII guards.
  void charge(Phase phase, const char* span, double t0, double t1,
              double seconds, tracing::EventArgs args = {});

  double gpu_free() const { return gpu_free_; }
  /// Cumulative across epochs (this rank).
  const PhaseProfile& profile() const { return profile_; }

 private:
  simmpi::Comm comm_;
  model::ComputeModel compute_;
  std::uint64_t output_dim_;
  std::uint64_t grad_bytes_;
  tracing::EventTracer* tracer_ = nullptr;  ///< set per epoch from the comm
  PhaseProfile profile_;
  double gpu_free_ = 0.0;
};

struct EpochReport {
  /// One backend counter's per-epoch delta, summed across ranks.  Names
  /// come straight from the backend's MetricsRegistry, in registration
  /// order — every counter a stage registers appears here without any
  /// trainer-side plumbing.
  struct MetricSample {
    std::string name;
    std::uint64_t value = 0;
  };

  std::uint64_t epoch = 0;
  double epoch_seconds = 0;       ///< max across ranks
  std::uint64_t global_samples = 0;
  double throughput = 0;          ///< samples / second, job-wide
  PhaseProfile mean_profile;      ///< mean per-rank phase seconds
  /// Every backend counter's epoch delta, summed across ranks (empty when
  /// the backend keeps no registry).
  std::vector<MetricSample> metrics;
  /// Fetch seconds hidden under compute by the prefetching loader, summed
  /// across ranks (0 in Pipelined mode).
  double overlap_hidden_s = 0;

  /// Summed epoch delta of a named counter; 0 when the backend never
  /// registered it (a linear scan — reports are small and read rarely).
  std::uint64_t metric(const std::string& name) const {
    for (const auto& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
};

class SimulatedTrainer {
 public:
  SimulatedTrainer(simmpi::Comm& comm, DataBackend& backend, Sampler& sampler,
                   const model::MachineConfig& machine,
                   SimTrainerConfig config = {});

  /// Collective: runs one epoch; every rank returns the same report.
  EpochReport run_epoch(std::uint64_t epoch);

  /// Per-sample loading latencies recorded on this rank so far.
  const LatencyRecorder& sample_latencies() const {
    return ploader_ ? ploader_->latencies() : loader_.latencies();
  }

  /// Collective: concatenates every rank's latencies on rank 0.
  LatencyRecorder gather_latencies();

  /// Optional epoch-boundary hook, invoked (on every rank, with the
  /// rank-identical report) after each run_epoch finishes and before it
  /// returns.  This is where the elastic driver lives: the hook runs with
  /// no fetch in flight, so it may reshard the backend collectively.
  using EpochEndHook = std::function<void(const EpochReport&)>;
  void set_epoch_end_hook(EpochEndHook hook) {
    epoch_end_hook_ = std::move(hook);
  }

 private:
  /// One epoch's steps.  Both loader modes share the loop; they differ
  /// only in the GPU-timeline model (Pipelined back-pressure vs the
  /// Prefetching loader's overlapped compute window).
  void run_steps();

  simmpi::Comm comm_;
  DataBackend* backend_;
  Sampler* sampler_;
  SimTrainerConfig config_;
  DataLoader loader_;
  /// Engaged instead of loader_ when loader_mode == Prefetching.
  std::optional<PrefetchingLoader> ploader_;
  StepTimeline timeline_;
  EpochEndHook epoch_end_hook_;
};

}  // namespace dds::train
