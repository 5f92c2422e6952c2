// The benchmark's workloads.  Each one exists so that one layer does most
// of its work there and little elsewhere (README.md gives the reasons and
// the per-layer predictions).  Everything here is fixed; only the seed
// varies between runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/store_config.hpp"
#include "datagen/spec.hpp"
#include "model/machine.hpp"
#include "train/sim_trainer.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  dds::model::MachineConfig machine;
  dds::datagen::DatasetKind kind = dds::datagen::DatasetKind::AisdExDiscrete;
  std::uint64_t num_samples = 0;
  int nranks = 0;
  std::uint64_t local_batch = 0;
  int epochs = 0;  ///< timed epochs per repetition
  dds::core::DDStoreConfig store;
  dds::train::LoaderMode loader = dds::train::LoaderMode::Pipelined;
  int prefetch_depth = 2;
  /// Per-rank cache capacity as a share of the rank's per-epoch unique
  /// working set (num_samples / nranks samples of mean size); 0 = off.
  double cache_share = 0.0;
  /// Tiered only: staged-set capacity as a share of the rank's cold bytes.
  double staged_set_share = 0.0;
  /// Arms faults::builtin_scenarios' single_straggler, materialized
  /// against this workload's own fault-free epoch time.
  bool straggler = false;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();

/// The named workload; throws dds::ConfigError for an unknown name.
const Workload& find_workload(const std::string& name);

/// Fiber switches per loaded sample: scale1024 must exceed this and every
/// other workload must stay below it (the layer-isolation self-check).
inline constexpr double kScaleSwitchesPerSample = 0.3;

}  // namespace perfbench
