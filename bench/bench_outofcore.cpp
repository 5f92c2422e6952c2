// Out-of-core tiered store: training datasets larger than the replica
// groups' pinned window memory.
//
// With hot_fraction = f each rank pins only an f-sized hot shard of its
// chunk; the cold remainder is served by the staging queue from the
// simulated parallel filesystem.  A dataset m times larger than the
// aggregate hot memory trains with f = 1/m — the question this bench
// answers is what that costs: the sweep crosses a dataset-size multiplier
// (with f = 1/m holding pinned bytes constant) against staging depths at
// widths {1, 8, 32}, reporting epoch-time inflation over the fully
// resident (f = 1.0) run on the same dataset, plus the tier counters that
// explain it (cold misses, staged hits, issue-window backpressure).
//
// Epochs are fetch-drain epochs over the GlobalShuffleSampler through the
// Coalesced batch planner — the planner enqueues a batch's cold misses
// before its hot RMA transfers, so a deep queue hides storage latency
// behind the wire and depth is visible in the numbers.
//
// Output: one JSON array, one object per cell.  --smoke runs the
// acceptance cell — width 8, a 4x dataset at hot_fraction 0.25 (4x
// aggregate-memory training) — and exits nonzero unless a full epoch
// completes with inflation at or below the pinned bound.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/harness.hpp"
#include "train/sampler.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

constexpr std::uint64_t kBaseSamples = 512;  ///< >= one global batch at 32 ranks
constexpr std::uint64_t kLocalBatch = 16;

/// Acceptance bound for --smoke: epoch-time inflation of the 4x-memory
/// cell (width 8, hot_fraction 0.25, depth 16) over the fully resident
/// epoch on the same dataset.  Measured 2.38x on Perlmutter parameters
/// (bandwidth-bound, zero backpressure at depth 16); the bound leaves
/// slack for cost-model retuning without letting a depth-collapse
/// regression (every read serialized, ~2x again on top) through.
constexpr double kMaxSmokeInflation = 3.0;

struct Cell {
  int width = 0;
  int multiplier = 0;
  std::uint64_t samples = 0;
  double hot_fraction = 0;
  int depth = 0;
  double epoch_s = 0;
  double inflation = 0;  ///< vs the hf=1.0 epoch on the same dataset
  std::uint64_t cold_misses = 0;
  std::uint64_t staged_hits = 0;
  std::uint64_t backpressure = 0;
};

/// One fetch-drain epoch through the Coalesced batch planner.  Returns the
/// epoch's virtual seconds (max over ranks) and rank-0's stats snapshot.
double drain_epoch(StagedData& data, const model::MachineConfig& machine,
                   int nranks, int width, std::uint64_t samples,
                   double hot_fraction, int depth, core::DDStoreStats* stats) {
  data.fs().reset_time_state();
  double epoch_s = 0;
  simmpi::Runtime rt(nranks, machine, /*seed=*/42);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(data.fs(), machine.node_of_rank(c.world_rank()),
                        c.clock(), c.rng());
    core::DDStoreConfig cfg;
    cfg.width = width;
    cfg.batch_fetch = core::BatchFetchMode::Coalesced;
    cfg.tiered.hot_fraction = hot_fraction;
    cfg.tiered.staging_depth = depth;
    core::DDStore store(c, data.cff(), client, cfg);
    train::GlobalShuffleSampler sampler(samples, kLocalBatch, /*seed=*/42);
    sampler.begin_epoch(0, c);
    c.clock().reset();
    c.barrier();
    const double t0 = c.clock().now();
    for (std::uint64_t step = 0; step < sampler.steps_per_epoch(); ++step) {
      (void)store.get_batch(sampler.batch_ids(step));
    }
    c.barrier();
    double elapsed = 0;
    for (const double t : c.allgather_untimed(c.clock().now() - t0)) {
      elapsed = std::max(elapsed, t);
    }
    if (c.rank() == 0) {
      epoch_s = elapsed;
      if (stats != nullptr) *stats = store.stats();
    }
    store.fence();
  });
  return epoch_s;
}

void print_cell(const Cell& cell, bool first) {
  std::printf(
      "%s  {\"width\": %d, \"multiplier\": %d, \"samples\": %llu, "
      "\"hot_fraction\": %s, \"staging_depth\": %d, \"epoch_s\": %s, "
      "\"inflation\": %s, \"cold_misses\": %llu, \"staged_hits\": %llu, "
      "\"backpressure_delays\": %llu}",
      first ? "" : ",\n", cell.width, cell.multiplier,
      static_cast<unsigned long long>(cell.samples),
      fmt(cell.hot_fraction, 2).c_str(), cell.depth,
      fmt(cell.epoch_s, 5).c_str(), fmt(cell.inflation, 3).c_str(),
      static_cast<unsigned long long>(cell.cold_misses),
      static_cast<unsigned long long>(cell.staged_hits),
      static_cast<unsigned long long>(cell.backpressure));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const model::MachineConfig machine = model::perlmutter();

  std::printf("[\n");
  bool first = true;
  bool smoke_ok = true;

  const std::vector<int> widths = smoke ? std::vector<int>{8}
                                        : std::vector<int>{1, 8, 32};
  const std::vector<int> multipliers =
      smoke ? std::vector<int>{4} : std::vector<int>{1, 2, 4};
  const std::vector<int> depths = smoke ? std::vector<int>{16}
                                        : std::vector<int>{4, 16};

  for (const int multiplier : multipliers) {
    const std::uint64_t samples =
        kBaseSamples * static_cast<std::uint64_t>(multiplier);
    // One staged dataset per size; every width/fraction cell reuses it
    // (reset_time_state between runs restores cold caches).
    const int nranks = smoke ? 8 : 32;
    StagedData data(machine, datagen::DatasetKind::AisdHomoLumo, samples,
                    nranks, /*with_pff=*/false);
    for (const int width : widths) {
      // Fully resident epoch on the same dataset: the inflation baseline.
      Cell base;
      base.width = width;
      base.multiplier = multiplier;
      base.samples = samples;
      base.hot_fraction = 1.0;
      base.depth = depths.front();
      base.epoch_s = drain_epoch(data, machine, nranks, width, samples, 1.0,
                                 base.depth, nullptr);
      base.inflation = 1.0;
      print_cell(base, first);
      first = false;

      // Tiered cells: hot_fraction 1/m pins the same hot bytes the m=1
      // dataset would fill — the out-of-core operating point — plus the
      // half-resident row for the sweep's shape.
      std::vector<double> fractions = {0.5};
      const double oper = 1.0 / static_cast<double>(multiplier);
      if (oper < 0.5) fractions.push_back(oper);
      if (smoke) fractions = {0.25};
      for (const double hf : fractions) {
        for (const int depth : depths) {
          Cell cell;
          cell.width = width;
          cell.multiplier = multiplier;
          cell.samples = samples;
          cell.hot_fraction = hf;
          cell.depth = depth;
          core::DDStoreStats st;
          cell.epoch_s = drain_epoch(data, machine, nranks, width, samples,
                                     hf, depth, &st);
          cell.inflation = cell.epoch_s / base.epoch_s;
          cell.cold_misses = st.cold_misses;
          cell.staged_hits = st.staged_hits;
          cell.backpressure = st.stage_backpressure_delays;
          print_cell(cell, false);
          if (smoke) {
            // Acceptance: a full epoch completed (every step drained), the
            // cold tier actually carried traffic, and inflation stayed
            // under the pinned bound.
            if (cell.cold_misses == 0) {
              std::fprintf(stderr, "SMOKE FAIL: no cold misses — tiering "
                                   "never engaged\n");
              smoke_ok = false;
            }
            if (cell.inflation > kMaxSmokeInflation) {
              std::fprintf(stderr,
                           "SMOKE FAIL: 4x-memory epoch inflation %.3fx "
                           "exceeds bound %.2fx (epoch %.5fs vs resident "
                           "%.5fs)\n",
                           cell.inflation, kMaxSmokeInflation, cell.epoch_s,
                           base.epoch_s);
              smoke_ok = false;
            }
          }
        }
      }
    }
  }
  std::printf("\n]\n");
  if (smoke && smoke_ok) {
    std::fprintf(stderr, "smoke ok: 4x aggregate-memory epoch within "
                         "%.2fx of fully resident\n",
                 kMaxSmokeInflation);
  }
  return smoke_ok ? 0 : 1;
}
