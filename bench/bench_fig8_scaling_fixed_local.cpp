// Fig. 8: scaling with a fixed per-GPU batch size of 128.
//
// Summit: 8-256 nodes (48-1536 GPUs); Perlmutter: 8-256 nodes (32-1024
// GPUs); AISD-Ex discrete and smooth; PFF vs CFF vs DDStore; two seeds per
// point give the variability band (the paper's grey area).  Expected
// shape: DDStore scales near-linearly in GPUs; PFF saturates at the
// metadata server and CFF at the filesystem data path, with much larger
// run-to-run variability.
//
// The full sweep reaches the paper's top widths (1536 Summit GPUs, 1024
// Perlmutter GPUs): every simulated rank is a userspace fiber, so 1024+
// ranks fit in one process.
// `--smoke` runs one Perlmutter point alone through one short DDStore
// epoch (CI's large-N gate): 256 nodes (1024 ranks) by default,
// `--nodes N` for another width; `--max-rss-mib M` fails the run when
// the process peaks above M MiB, and `--max-minflt F` when it takes more
// than F minor page faults.  It prints the wall time and the
// process's getrusage totals (peak RSS, minor faults, user and system
// CPU seconds).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

void run_machine(const model::MachineConfig& machine,
                 datagen::DatasetKind kind) {
  std::printf("\n# Fig. 8 (%s, %s): throughput [samples/s] vs GPUs, "
              "fixed local batch 128\n",
              machine.name.c_str(), datagen::dataset_spec(kind).name.c_str());
  print_row({"nodes", "gpus", "PFF lo", "PFF hi", "CFF lo", "CFF hi",
             "DDStore lo", "DDStore hi"});

  for (int nodes = 8; nodes <= 256; nodes *= 2) {
    const int nranks = nodes * machine.gpus_per_node;
    Scenario sc;
    sc.machine = machine;
    sc.kind = kind;
    sc.nranks = nranks;
    sc.local_batch = 128;
    sc.epochs = 1;
    sc.num_samples = scaled_samples(nranks, sc.local_batch, /*min_steps=*/2);
    sc.ddstore.charge_replica_preload = false;  // preload excluded anyway

    StagedData data(machine, kind, sc.num_samples, nranks, /*with_pff=*/true);
    std::vector<std::string> row = {std::to_string(nodes),
                                    std::to_string(nranks)};
    for (const auto backend :
         {BackendKind::Pff, BackendKind::Cff, BackendKind::DDStore}) {
      double lo = 1e300, hi = 0;
      for (const std::uint64_t seed : {11ULL, 29ULL}) {
        Scenario run = sc;
        run.seed = seed;
        const double tput = run_training(data, run, backend)
                                .mean_throughput();
        lo = std::min(lo, tput);
        hi = std::max(hi, tput);
      }
      row.push_back(fmt(lo, 0));
      row.push_back(fmt(hi, 0));
    }
    print_row(row);
  }
}

/// CI large-N gate: `nodes` Perlmutter nodes through one short DDStore
/// epoch.  Exits non-zero unless the epoch completes with positive
/// throughput and the process stays within each ceiling that is set
/// (`max_rss_mib` > 0 for peak RSS, `max_minflt` > 0 for minor faults);
/// prints the wall time and getrusage totals so CI logs document the
/// simulator's speed and footprint at this scale.
int run_smoke(int nodes, double max_rss_mib, long max_minflt) {
  const auto machine = model::perlmutter();
  const int nranks = nodes * machine.gpus_per_node;
  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = nranks;
  sc.local_batch = 16;
  sc.epochs = 1;
  sc.num_samples = scaled_samples(nranks, sc.local_batch, /*min_steps=*/2);
  sc.ddstore.charge_replica_preload = false;

  std::printf("# Fig. 8 --smoke: %d ranks (%d Perlmutter nodes), "
              "%llu samples, one epoch\n",
              nranks, nodes, static_cast<unsigned long long>(sc.num_samples));
  const auto t0 = std::chrono::steady_clock::now();
  StagedData data(machine, sc.kind, sc.num_samples, nranks,
                  /*with_pff=*/false);
  const auto result = run_training(data, sc, BackendKind::DDStore);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  const double tput = result.mean_throughput();
  print_row({"gpus", "samples/s", "modeled epoch [s]", "wall [s]",
             "peak RSS [MiB]", "minor faults", "user [s]", "sys [s]"});
  print_row({std::to_string(nranks), fmt(tput, 0),
             fmt(result.epochs.front().epoch_seconds), fmt(wall, 1),
             fmt(rss_mib, 0), std::to_string(ru.ru_minflt),
             fmt(seconds(ru.ru_utime), 2), fmt(seconds(ru.ru_stime), 2)});
  if (!(tput > 0)) {
    std::fprintf(stderr, "FAIL: %d-rank epoch produced no throughput\n",
                 nranks);
    return 1;
  }
  if (max_rss_mib > 0 && rss_mib > max_rss_mib) {
    std::fprintf(stderr,
                 "FAIL: peak RSS %.0f MiB exceeds the %.0f MiB ceiling\n",
                 rss_mib, max_rss_mib);
    return 1;
  }
  if (max_minflt > 0 && ru.ru_minflt > max_minflt) {
    std::fprintf(stderr,
                 "FAIL: %ld minor faults exceed the %ld-fault ceiling\n",
                 ru.ru_minflt, max_minflt);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int nodes = 256;
  double max_rss_mib = 0;
  long max_minflt = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-rss-mib") == 0 && i + 1 < argc) {
      max_rss_mib = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-minflt") == 0 && i + 1 < argc) {
      max_minflt = std::atol(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke [--nodes N] [--max-rss-mib M] "
                   "[--max-minflt F]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    if (nodes < 1) {
      std::fprintf(stderr, "--nodes must be at least 1\n");
      return 2;
    }
    return run_smoke(nodes, max_rss_mib, max_minflt);
  }
  run_machine(model::summit(), datagen::DatasetKind::AisdExDiscrete);
  run_machine(model::summit(), datagen::DatasetKind::AisdExSmooth);
  run_machine(model::perlmutter(), datagen::DatasetKind::AisdExDiscrete);
  run_machine(model::perlmutter(), datagen::DatasetKind::AisdExSmooth);
  return 0;
}
