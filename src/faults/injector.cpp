#include "faults/injector.hpp"

#include "common/error.hpp"

namespace dds::faults {

FaultInjector::FaultInjector(const FaultConfig& config, int nranks)
    : config_(config),
      nranks_(nranks),
      revive_epoch_(static_cast<std::size_t>(nranks > 0 ? nranks : 1)) {
  DDS_CHECK_MSG(nranks > 0, "FaultInjector needs at least one rank");
  DDS_CHECK_MSG(config.rma_fail_prob >= 0.0 && config.rma_fail_prob <= 1.0,
                "rma_fail_prob must be a probability");
  DDS_CHECK_MSG(
      config.rma_corrupt_prob >= 0.0 && config.rma_corrupt_prob <= 1.0,
      "rma_corrupt_prob must be a probability");
  DDS_CHECK_MSG(config.rma_fail_prob + config.rma_corrupt_prob <= 1.0,
                "rma fail+corrupt probabilities must not exceed 1");
  DDS_CHECK_MSG(
      config.fs_read_error_prob >= 0.0 && config.fs_read_error_prob <= 1.0,
      "fs_read_error_prob must be a probability");
  DDS_CHECK_MSG(config.straggler_rank < nranks, "straggler_rank out of range");
  DDS_CHECK_MSG(config.dead_rank < nranks, "dead_rank out of range");
  DDS_CHECK_MSG(config.straggler_factor >= 1.0,
                "straggler_factor must be >= 1 (a slowdown)");
  for (const SlowdownPhase& p : config.slowdowns) {
    DDS_CHECK_MSG(p.rank >= 0 && p.rank < nranks,
                  "slowdown phase rank out of range");
    DDS_CHECK_MSG(p.factor >= 1.0,
                  "slowdown factor must be >= 1 (a slowdown)");
    DDS_CHECK_MSG(p.start_s <= p.end_s, "slowdown phase window is inverted");
  }
  for (const LinkPhase& p : config.links) {
    DDS_CHECK_MSG(p.origin >= -1 && p.origin < nranks,
                  "link phase origin out of range");
    DDS_CHECK_MSG(p.target >= -1 && p.target < nranks,
                  "link phase target out of range");
    DDS_CHECK_MSG(p.loss_prob >= 0.0 && p.loss_prob <= 1.0,
                  "link loss_prob must be a probability");
    DDS_CHECK_MSG(p.jitter_mean_s >= 0.0, "link jitter mean must be >= 0");
    DDS_CHECK_MSG(p.start_s <= p.end_s, "link phase window is inverted");
  }
  for (const DeathPhase& p : config.deaths) {
    DDS_CHECK_MSG(p.rank >= 0 && p.rank < nranks,
                  "death phase rank out of range");
    DDS_CHECK_MSG(p.at_s >= 0.0, "death time must be >= 0");
  }

  const Rng root(config.seed);
  streams_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    // Distinct stream indices per (rank, purpose) so FS decisions during
    // preload never shift the RMA decision sequence and vice versa.  Link
    // streams live past the rma/fs index range, keeping the legacy rma/fs
    // sequences bit-identical to configs predating link faults.
    streams_.push_back(RankStreams{
        root.stream(2 * static_cast<std::uint64_t>(r)),
        root.stream(2 * static_cast<std::uint64_t>(r) + 1),
        root.stream(2 * static_cast<std::uint64_t>(nranks) +
                    static_cast<std::uint64_t>(r))});
  }
}

FaultInjector::RankStreams& FaultInjector::streams(int rank) {
  DDS_CHECK_MSG(rank >= 0 && rank < nranks_, "rank out of range");
  return streams_[static_cast<std::size_t>(rank)];
}

GetOutcome FaultInjector::rma_outcome(int origin) {
  // Single draw regardless of which probabilities are armed, so changing
  // one knob does not shift the rest of the decision sequence.
  const double u = streams(origin).rma.uniform();
  if (u < config_.rma_fail_prob) return GetOutcome::Fail;
  if (u < config_.rma_fail_prob + config_.rma_corrupt_prob) {
    return GetOutcome::Corrupt;
  }
  return GetOutcome::Ok;
}

LinkOutcome FaultInjector::link_outcome(int origin, int target, double now) {
  if (config_.links.empty()) return {};
  // Fixed two draws per call (loss verdict + jitter magnitude) whether or
  // not any phase is currently active, so a rank's link sequence depends
  // only on its own call order, never on the virtual times of the calls.
  Rng& rng = streams(origin).link;
  const double u = rng.uniform();
  const double e = rng.exponential(1.0);  // Exp(1); scaled by the mean below

  bool partitioned = false;
  double loss = 0.0;
  double jitter_mean = 0.0;
  for (const LinkPhase& p : config_.links) {
    if (p.origin != -1 && p.origin != origin) continue;
    if (p.target != -1 && p.target != target) continue;
    if (now < p.start_s || now >= p.end_s) continue;
    partitioned |= p.partition;
    loss = std::max(loss, p.loss_prob);
    jitter_mean += p.jitter_mean_s;
  }

  LinkOutcome out;
  out.drop = partitioned || u < loss;
  if (!out.drop) out.extra_latency_s = jitter_mean * e;
  return out;
}

bool FaultInjector::target_dead(int target, double now) const {
  if (revive_epoch(target) > 0) return false;
  if (target == config_.dead_rank && now >= config_.death_time_s) return true;
  for (const DeathPhase& p : config_.deaths) {
    if (p.rank == target && now >= p.at_s) return true;
  }
  return false;
}

void FaultInjector::revive(int rank) {
  DDS_CHECK_MSG(rank >= 0 && rank < nranks_, "rank out of range");
  ++revive_epoch_[static_cast<std::size_t>(rank)];
}

double FaultInjector::slowdown_of(int rank, double now) const {
  double factor = 1.0;
  for (const SlowdownPhase& p : config_.slowdowns) {
    if (p.rank == rank && now >= p.start_s && now < p.end_s) {
      factor *= p.factor;
    }
  }
  return factor;
}

std::size_t FaultInjector::corrupt_byte(int origin, std::size_t size) {
  DDS_CHECK_MSG(size > 0, "cannot corrupt an empty payload");
  return static_cast<std::size_t>(streams(origin).rma.uniform_u64(size));
}

bool FaultInjector::fs_read_fails(int origin) {
  if (config_.fs_read_error_prob <= 0.0) return false;
  return streams(origin).fs.bernoulli(config_.fs_read_error_prob);
}

}  // namespace dds::faults
