// Per-phase profiler (the breakdowns of the paper's Fig. 5 and Fig. 9).
//
// Accumulates virtual seconds per named training phase on each rank;
// reports merge across ranks with allreduce.  The phases mirror the
// paper's breakdowns: Fig. 5 stacks CPU-Loading / CPU-Batching /
// GPU-Compute / GPU-Comm; Fig. 9 plots per-function durations.
#pragma once

#include <array>
#include <string>

#include "simmpi/runtime.hpp"

namespace dds::train {

enum class Phase : int {
  Load = 0,      ///< CPU: fetching samples (FS or DDStore)
  Batch,         ///< CPU: collating samples into a batch
  Forward,       ///< GPU: forward pass
  Backward,      ///< GPU: backward pass
  GradComm,      ///< GPU: gradient all-reduce incl. straggler stall
  Optimizer,     ///< GPU: AdamW update
  RmaComm,       ///< subset of Load spent inside MPI RMA calls
  kCount
};

inline const char* phase_name(Phase p) {
  static const char* names[] = {"CPU-Loading", "CPU-Batching", "GPU-Forward",
                                "GPU-Backward", "GPU-Comm", "GPU-Optimizer",
                                "MPI-RMA"};
  return names[static_cast<int>(p)];
}

class PhaseProfile {
 public:
  static constexpr int kPhases = static_cast<int>(Phase::kCount);

  void add(Phase p, double seconds) {
    DDS_CHECK(seconds >= -1e-12);
    t_[static_cast<std::size_t>(p)] += seconds;
  }

  double get(Phase p) const { return t_[static_cast<std::size_t>(p)]; }

  double total() const {
    double s = 0;
    // RmaComm is a sub-category of Load; don't double count.
    for (int p = 0; p < kPhases; ++p) {
      if (static_cast<Phase>(p) == Phase::RmaComm) continue;
      s += t_[static_cast<std::size_t>(p)];
    }
    return s;
  }

  void merge(const PhaseProfile& other) {
    for (int p = 0; p < kPhases; ++p) {
      t_[static_cast<std::size_t>(p)] += other.t_[static_cast<std::size_t>(p)];
    }
  }

  void reset() { t_.fill(0.0); }

  /// Element-wise difference (this - earlier): a per-interval profile.
  PhaseProfile diff(const PhaseProfile& earlier) const {
    PhaseProfile out;
    for (int p = 0; p < kPhases; ++p) {
      out.t_[static_cast<std::size_t>(p)] =
          t_[static_cast<std::size_t>(p)] -
          earlier.t_[static_cast<std::size_t>(p)];
    }
    return out;
  }

  /// Collective: element-wise sum over all ranks, divided by rank count
  /// (the mean per-rank profile).
  PhaseProfile allreduce_mean(simmpi::Comm& comm) const {
    PhaseProfile out = *this;
    comm.allreduce_inplace(std::span<double>(out.t_.data(), out.t_.size()),
                           simmpi::Op::Sum);
    for (auto& v : out.t_) v /= comm.size();
    return out;
  }

 private:
  std::array<double, kPhases> t_{};
};

}  // namespace dds::train
