// CI perf gate: pinned canonical configurations whose modeled epoch times
// must be *exactly* reproducible run-to-run.
//
// Every cell runs its ranks as fibers in a fixed cyclic order, so the
// virtual-time model produces bit-identical doubles on repeated runs of
// the same binary.  The sweep is width {1,2,4}
// x pipeline {per-sample+Pipelined, coalesced+Prefetching} x cache
// {off, unbounded} on 8 Perlmutter ranks — 12 cells covering the fetch
// planner, the prefetch overlap model, and the hot-sample cache.
//
// Output is a JSON array (one object per cell) with epoch times printed at
// %.17g — enough digits to round-trip an IEEE-754 double exactly — plus
// every backend counter.  tools/check_perf.py diffs a fresh run against
// the committed BENCH_ci_perf.json baseline and fails CI on any
// non-identical value; tools/perf_gate_test.sh is the ctest wrapper.
//
// --perturb scales the modeled inter-node network latency by 1e-4 (a
// deliberately tiny cost-model change).  It exists only to prove the gate
// has teeth: a perturbed run must *fail* check_perf.py.
#include <cstdio>
#include <cstring>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

/// Shortest decimal string that round-trips the double exactly (IEEE-754
/// binary64 needs at most 17 significant digits).
std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Cell {
  int width;
  bool coalesced;   ///< false = per-sample + Pipelined loader
  bool cache;       ///< true = unbounded per-rank LRU
};

void print_cell(bool first, const Cell& cell, const RunResult& result) {
  if (!first) std::printf(",\n");
  std::printf(
      "  {\"machine\": \"perlmutter\", \"nranks\": 8, \"width\": %d, "
      "\"pipeline\": \"%s\", \"cache\": \"%s\", \"epoch_seconds\": [",
      cell.width, cell.coalesced ? "coalesced+prefetch" : "per-sample",
      cell.cache ? "unbounded" : "off");
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    if (i != 0) std::printf(", ");
    std::printf("%s", exact(result.epochs[i].epoch_seconds).c_str());
  }
  std::printf("], \"overlap_hidden_s\": [");
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    if (i != 0) std::printf(", ");
    std::printf("%s", exact(result.epochs[i].overlap_hidden_s).c_str());
  }
  const std::string counters = metrics_json_fields(result.summed_metrics());
  std::printf("], \"counters\": {%s}}", counters.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool perturb = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perturb") == 0) perturb = true;
  }

  model::MachineConfig machine = model::perlmutter();
  if (perturb) {
    // Synthetic cost-model drift for the gate's self-test: must be caught
    // by tools/check_perf.py as a non-identical modeled time.
    machine.net.inter_latency_s *= 1.0001;
  }

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = 8;
  sc.local_batch = 8;
  sc.epochs = 2;
  sc.num_samples = scaled_samples(sc.nranks, sc.local_batch, /*min_steps=*/3,
                                  /*floor_samples=*/256);
  sc.seed = 42;
  sc.ddstore.charge_replica_preload = false;

  StagedData data(machine, sc.kind, sc.num_samples, sc.nranks,
                  /*with_pff=*/false);

  const int widths[] = {1, 2, 4};
  const bool pipelines[] = {false, true};  // per-sample, coalesced+prefetch
  const bool caches[] = {false, true};

  std::printf("[\n");
  bool first = true;
  for (const int width : widths) {
    for (const bool coalesced : pipelines) {
      for (const bool cache : caches) {
        Scenario run = sc;
        run.ddstore.width = width;
        run.ddstore.batch_fetch = coalesced ? core::BatchFetchMode::Coalesced
                                            : core::BatchFetchMode::PerSample;
        run.loader_mode = coalesced ? train::LoaderMode::Prefetching
                                    : train::LoaderMode::Pipelined;
        run.prefetch_depth = 2;  // Pipelined cells ignore this knob
        run.ddstore.cache_capacity_bytes =
            cache ? (1ull << 40) : 0;  // unbounded in practice
        const auto result = run_training(data, run, BackendKind::DDStore);
        print_cell(first, Cell{width, coalesced, cache}, result);
        first = false;
      }
    }
  }
  std::printf("\n]\n");
  return 0;
}
