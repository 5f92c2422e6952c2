// Chaos scenario engine: compound gray-failure scenarios with invariant
// checking.
//
// A ChaosScenario is a named compound fault schedule — stragglers, flaky
// windows, link loss/jitter, partitions, deaths — authored in *normalized*
// time: every phase boundary is a multiple of T, the measured fault-free
// epoch duration of the workload under test.  The runner (bench_chaos)
// first measures T with no faults armed, then materialize() scales the
// schedule into virtual seconds, so "the straggler degrades mid-epoch 2"
// means the same thing on every machine model and workload size.  All
// randomness downstream comes from the FaultInjector's deterministically
// seeded per-rank streams, so a scenario replays bit-identically.
//
// The InvariantChecker accumulates violations of the properties every
// scenario must keep regardless of the chaos injected:
//   * correctness — every fetched sample byte-identical to ground truth;
//   * liveness    — every epoch completes, within a bounded inflation of
//                   the fault-free epoch time (a hung or livelocked run
//                   never reports an epoch at all, which the runner treats
//                   the same way);
//   * accounting  — counters stay mutually consistent (wins never exceed
//                   hedges, twins never disagree, no degraded reads unless
//                   the scenario expects unreachable samples);
//   * determinism — a same-seed replay reproduces every epoch's virtual
//                   duration exactly (bit-equal doubles, no tolerance).
//
// This layer knows nothing about DDStore: it deals only in FaultConfig
// schedules and numbers the runner feeds back, which keeps dds_faults at
// the bottom of the dependency stack (the runner links the world).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "faults/injector.hpp"

namespace dds::faults {

/// One named compound scenario.  `faults` phase times (slowdown windows,
/// link windows, death times) are in units of the fault-free epoch
/// duration; materialize() turns them into seconds.
struct ChaosScenario {
  std::string name;
  FaultConfig faults;  ///< phase boundaries in units of T
  /// Epoch-time bound: every epoch must finish within max_inflation * T.
  double max_inflation = 4.0;
  bool wants_hedging = true;  ///< arm hedged fetches + health steering
  bool wants_elastic = false; ///< mount an ElasticDriver (rebuild_on_fault)
  /// Scenario expects some samples to be temporarily unreachable in
  /// memory, so FS-fallback degraded reads are legitimate, not a bug.
  bool allows_degraded = false;
  std::string note;  ///< one line for the JSON verdict
};

/// Scales every normalized phase boundary in `scenario.faults` by
/// `epoch_s` (the measured fault-free epoch duration).  Rates and
/// probabilities (loss_prob, jitter_mean_s, factor) pass through
/// untouched — only the time axis is normalized.
FaultConfig materialize(const FaultConfig& normalized, double epoch_s);

/// The built-in scenario catalog, smallest to nastiest.  `nranks` scales
/// which ranks the phases pick on; every scenario assumes replica width
/// >= 2 (a twin exists) except the baseline.
std::vector<ChaosScenario> builtin_scenarios(int nranks);

/// One epoch's measured outcome, fed to the checker as the run progresses.
struct EpochOutcome {
  double epoch_s = 0.0;           ///< max-over-ranks virtual duration
  bool samples_identical = true;  ///< all fetched bytes matched ground truth
};

/// End-of-run counter totals (summed across ranks) the checker audits.
struct CounterAudit {
  std::uint64_t hedged_fetches = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_mismatches = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t checksum_failures = 0;
};

/// Accumulates invariant violations for one scenario run.  Violations are
/// human-readable strings (they go straight into the JSON verdict);
/// passed() is simply "none recorded".
class InvariantChecker {
 public:
  /// `reference_epoch_s` is the fault-free T; epochs must finish within
  /// `max_inflation * T`.
  InvariantChecker(double reference_epoch_s, double max_inflation);

  /// Call once per finished epoch, in order.
  void on_epoch(int epoch, const EpochOutcome& outcome);

  /// Call once at end of run with cross-rank counter totals.
  void on_counters(const CounterAudit& audit, bool allows_degraded);

  /// Call with the per-epoch durations of the original run and a same-seed
  /// replay; every pair must be bit-equal.
  void on_replay(std::span<const double> run, std::span<const double> replay);

  bool passed() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  double reference_epoch_s_;
  double max_inflation_;
  std::vector<std::string> violations_;
};

}  // namespace dds::faults
