// EpochCounters: the one per-epoch rollup of a MetricsRegistry, used by
// SimulatedTrainer, the tenant driver and the elastic driver.
//
// Snapshot the registry when an epoch starts; when it ends, take this
// rank's increments, sum them across ranks if a job-wide figure is wanted,
// and look counters up by name.  Ranks can sum elementwise because their
// registries share one registration order, so a counter registered after
// the snapshot throws rather than silently reading as zero.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "simmpi/runtime.hpp"

namespace dds::core {

class EpochCounters {
 public:
  /// Snapshots `registry`; nullptr (a backend without one) gives empty
  /// deltas.
  explicit EpochCounters(const MetricsRegistry* registry)
      : registry_(registry) {
    snapshot();
  }

  void snapshot() {
    if (registry_ != nullptr) start_ = registry_->counter_values();
    delta_.clear();
  }

  /// This rank's increments since the snapshot, in registration order.
  const std::vector<std::uint64_t>& local_delta() {
    if (registry_ == nullptr) return delta_;
    delta_ = registry_->counter_values();
    DDS_CHECK_MSG(delta_.size() == start_.size(),
                  "metrics registered mid-epoch break delta accounting");
    for (std::size_t i = 0; i < delta_.size(); ++i) delta_[i] -= start_[i];
    return delta_;
  }

  /// Collective: local_delta() summed across ranks, untimed (bookkeeping
  /// must not perturb the time model).
  const std::vector<std::uint64_t>& reduce(simmpi::Comm& comm) {
    local_delta();
    comm.allreduce_untimed(std::span<std::uint64_t>(delta_), simmpi::Op::Sum);
    return delta_;
  }

  /// Name of the last delta's i-th entry.
  const std::string& name(std::size_t i) const {
    return registry_->counter_names()[i];
  }

  /// The last delta's value of the named counter; 0 if never registered.
  std::uint64_t metric(const std::string& name) const {
    for (std::size_t i = 0; i < delta_.size(); ++i) {
      if (this->name(i) == name) return delta_[i];
    }
    return 0;
  }

 private:
  const MetricsRegistry* registry_;
  std::vector<std::uint64_t> start_;
  std::vector<std::uint64_t> delta_;
};

}  // namespace dds::core
