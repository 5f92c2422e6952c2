// Deterministic fault injection (the chaos layer of the robustness story).
//
// Production data loaders treat transient I/O and peer failures as expected
// events; this module lets the simulation *arm* them reproducibly so the
// resilient fetch path in DDStore can be exercised and measured.  Two
// families of faults are modelled:
//
// Fail-stop / corruption (the PR-1 set):
//  * transient RMA faults — a one-sided get either fails outright (the
//    origin observes a NACK/timeout) or delivers a corrupted payload
//    (detected downstream by the registry checksum);
//  * straggler targets — one rank's NIC serves at a fraction of its rated
//    speed for the whole run (NetworkModel::set_service_scale);
//  * permanent rank death — from a virtual time onward, every get targeting
//    the rank fails (its memory is gone as far as peers are concerned);
//  * transient FS read errors — preload reads through FsClient throw
//    IoError with a configured probability.
//
// Gray failures (time-varying profiles on the virtual-time axis):
//  * slowdown phases — a rank's NIC degrades by a factor during a window
//    [start_s, end_s) and recovers afterwards (flaky / transiently
//    overloaded nodes);
//  * link phases — a directional origin->target link drops transfers with
//    a probability, adds exponential jitter, or partitions outright during
//    a window (and heals when it closes);
//  * scheduled deaths — any number of ranks die at configured virtual
//    times; revive() brings a rank back once recovery re-hosts its chunk.
//
// Determinism: every decision is drawn from per-rank RNG streams derived
// from a single seed, and each decision consumes a fixed number of draws,
// so a rank's fault sequence depends only on its own call order — which is
// deterministic for a fixed seed.  Time-window membership (slowdowns,
// partitions, deaths) is a pure function of (ranks, now) and consumes no
// draws at all.  Two runs with the same seed therefore inject the same
// faults at the same points, and retry/failover/degraded-read counts are
// bit-identical (the acceptance criterion for reproducible chaos runs).
// Link loss/jitter draw from a *separate* per-rank stream, so arming a
// link fault never shifts the RMA fail/corrupt sequence.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace dds::faults {

/// What the injector decided about one remote one-sided get.
enum class GetOutcome {
  Ok,       ///< delivered intact
  Fail,     ///< transport failure: no data, origin sees an error
  Corrupt,  ///< delivered, but with flipped byte(s) in the payload
};

/// A time window during which one rank's NIC serves `factor` times slower
/// (software overhead and wire time both stretch, exactly like a static
/// straggler).  Phases targeting the same rank compound multiplicatively.
struct SlowdownPhase {
  int rank = -1;
  double factor = 2.0;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
};

/// A time window during which a directional origin->target link misbehaves
/// (-1 matches any rank on that side).  `partition` fails every matching
/// transfer; otherwise transfers drop with `loss_prob` and completions gain
/// exponential jitter of mean `jitter_mean_s`.  Model a symmetric fault
/// with two mirrored phases.
struct LinkPhase {
  int origin = -1;  ///< world rank issuing the get (-1 = any)
  int target = -1;  ///< world rank being read (-1 = any)
  double loss_prob = 0.0;
  double jitter_mean_s = 0.0;
  bool partition = false;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
};

/// One scheduled rank death: from `at_s` onward every get targeting `rank`
/// fails, until revive(rank) brings it back.
struct DeathPhase {
  int rank = -1;
  double at_s = 0.0;
};

/// Fault scenario knobs.  All probabilities are per-operation; a
/// default-constructed config arms nothing.
struct FaultConfig {
  /// Seed for the per-rank decision streams (0 is a valid seed).
  std::uint64_t seed = 42;

  /// Probability that a remote RMA get fails in transport.
  double rma_fail_prob = 0.0;
  /// Probability that a remote RMA get delivers corrupted bytes.
  double rma_corrupt_prob = 0.0;
  /// Probability that a timed FS read throws a transient IoError.
  double fs_read_error_prob = 0.0;

  /// World rank whose NIC is degraded (-1 = none).
  int straggler_rank = -1;
  /// Service-time multiplier for the straggler's NIC (e.g. 8 = 8x slower).
  double straggler_factor = 8.0;

  /// World rank that dies (-1 = none): gets targeting it fail permanently.
  int dead_rank = -1;
  /// Virtual time at which `dead_rank` dies (0 = dead from the start).
  double death_time_s = 0.0;

  /// Gray-failure schedules (see the phase structs above).
  std::vector<SlowdownPhase> slowdowns;
  std::vector<LinkPhase> links;
  std::vector<DeathPhase> deaths;

  bool any() const {
    return rma_fail_prob > 0.0 || rma_corrupt_prob > 0.0 ||
           fs_read_error_prob > 0.0 || straggler_rank >= 0 ||
           dead_rank >= 0 || !slowdowns.empty() || !links.empty() ||
           !deaths.empty();
  }
};

/// The injector's verdict on one remote transfer's link (transport-level
/// fate beyond the per-origin RMA outcome draw).
struct LinkOutcome {
  bool drop = false;            ///< partitioned or lost: the get fails
  double extra_latency_s = 0.0; ///< jitter added to the completion time
};

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, int nranks);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultConfig& config() const { return config_; }
  int nranks() const { return nranks_; }

  /// Decides the fate of one remote get issued by `origin` (world rank).
  /// Consumes exactly one draw from the origin's RMA stream.
  GetOutcome rma_outcome(int origin);

  /// Decides the link-level fate of one remote get origin->target at
  /// virtual time `now`.  With no link phases configured this is free (no
  /// draws); otherwise it consumes exactly two draws from the origin's
  /// *link* stream per call, so arming link faults never perturbs the RMA
  /// or FS decision sequences.
  LinkOutcome link_outcome(int origin, int target, double now);

  /// True if `target` (world rank) is dead at virtual time `now` — either
  /// the legacy dead_rank or any scheduled DeathPhase, unless the rank has
  /// been revived.
  bool target_dead(int target, double now) const;

  /// Brings `rank` back: once the recovery path has re-hosted its chunk,
  /// gets targeting it succeed again (a revived rank stays alive for the
  /// rest of the run).  Also bumps the rank's revival epoch — the signal
  /// fetch-path breakers watch to forget stale failure history, so a
  /// revived rank is immediately eligible for fetches instead of waiting
  /// out an open-breaker cooldown.
  void revive(int rank);

  /// Monotonic per-rank revival generation (0 = never revived).  A
  /// resilience stage that cached "rank r is broken" compares this against
  /// the generation it last saw and resets its breaker on a change.
  std::uint32_t revive_epoch(int rank) const {
    return revive_epoch_[static_cast<std::size_t>(rank)];
  }

  /// Byte position to flip in a corrupted payload of `size` bytes.
  std::size_t corrupt_byte(int origin, std::size_t size);

  /// True if this timed FS read by `origin` should fail transiently.
  /// Consumes exactly one draw from the origin's FS stream.
  bool fs_read_fails(int origin);

  /// Static NIC service-time multiplier for `rank` (1.0 unless it is the
  /// whole-run straggler).  Applied once at arm time.
  double service_scale_of(int rank) const {
    return rank == config_.straggler_rank ? config_.straggler_factor : 1.0;
  }

  /// Time-varying NIC service-time multiplier for `rank` at `now`: the
  /// product of all active slowdown phases (exactly 1.0 outside them).
  /// NetworkModel consults this per transfer when dynamic profiles exist.
  double slowdown_of(int rank, double now) const;

  /// True when any slowdown phase is configured, i.e. the network model
  /// needs the per-transfer dynamic-scale hook.
  bool has_dynamic_profiles() const { return !config_.slowdowns.empty(); }

 private:
  /// Independent decision streams per rank; each rank touches only its own
  /// element.
  struct RankStreams {
    Rng rma;
    Rng fs;
    Rng link;
  };

  RankStreams& streams(int rank);

  FaultConfig config_;
  int nranks_;
  std::vector<RankStreams> streams_;
  /// Per-rank revival generation; >0 means the rank was brought back and
  /// every death schedule for it is void.
  std::vector<std::uint32_t> revive_epoch_;
};

}  // namespace dds::faults
