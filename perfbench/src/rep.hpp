// One repetition of a workload: set up from scratch (dataset, container,
// runtime, store), run the timed epochs, and report what every clock and
// probe saw.
#pragma once

#include <cstdint>
#include <vector>

#include "calibrate.hpp"
#include "fs/parallel_fs.hpp"
#include "probes.hpp"
#include "selftime.hpp"
#include "train/sim_trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RepResult {
  // ---- host clock -------------------------------------------------------
  double setup_s = 0;          ///< rep start -> first timed epoch
  double epochs_host_s = 0;    ///< timed epochs, checking time excluded
  double stage_host_s = 0;     ///< CFF staging minus datagen inside it
  double runtime_start_host_s = 0;
  double ctor_host_s = 0;
  std::uint64_t preload_reads = 0;  ///< SampleReader reads during ctor
  double preload_read_host_s = 0;
  double barrier_host_us = 0;  ///< median over the probe barriers
  double gather_host_s = 0;
  double kernel_s = 0;  ///< calibration kernel, timed right before the rep
  Probe probe;                 ///< decorator totals (timed epochs only
                               ///< for the fetch/sampler/check fields)

  // ---- modeled clock ----------------------------------------------------
  std::vector<dds::train::EpochReport> reports;
  double load_p50_s = 0;
  double load_p99_s = 0;
  std::uint64_t latency_samples = 0;
  double preload_s = 0;  ///< max over ranks
  /// Summed over ranks, preload included (the cold tier's staging reads
  /// are modeled beside the FsClient and do not appear here).
  dds::fs::FsClientStats fs;

  // ---- deterministic counters --------------------------------------------
  std::uint64_t fiber_switches = 0;  ///< over the timed epochs
  std::uint64_t global_samples = 0;  ///< over the timed epochs
  std::size_t fiber_stack_bytes = 0;
  int nranks = 0;

  // ---- traced repetitions only -------------------------------------------
  SelfTimeTable self;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;

  /// Reference-machine seconds per host second now (see calibrate.hpp).
  double host_scale() const { return kReferenceKernelS / kernel_s; }
  double host_samples_per_s() const {
    return static_cast<double>(global_samples) / epochs_host_s;
  }
  double fiber_switches_per_sample() const {
    return static_cast<double>(fiber_switches) /
           static_cast<double>(global_samples);
  }
  double mean_epoch_s() const;
  double mean_throughput() const;
  /// Every modeled number and counter, for bit-exact comparison.
  std::vector<double> modeled_signature() const;
};

/// Runs one repetition with inputs derived from `seed`.  `truth` must be
/// the ground truth of the same seed's dataset.
RepResult run_rep(const Workload& w, std::uint64_t seed,
                  const GroundTruth& truth, bool traced);

/// The workload's dataset for `seed` (undecorated; for the ground truth).
std::unique_ptr<dds::datagen::SyntheticDataset> make_workload_dataset(
    const Workload& w, std::uint64_t seed);

}  // namespace perfbench
