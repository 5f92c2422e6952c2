// Fig. 11: end-to-end performance vs the DDStore width parameter.
//
// 64 nodes on both machines, AISD-Ex discrete, batch 128/GPU.  Width is
// swept from gpus_per_node*2 up to the full rank count (the default,
// width = N, a single replica).  Paper: throughput varies by <10% across
// widths — the latency benefit of small widths (Fig. 12) is mostly hidden
// by compute overlap — so the flat curve IS the expected result.
//
// A second sweep repeats the experiment at the machines' full 256-node
// scale (1536 Summit / 1024 Perlmutter GPUs) — beyond the paper's Fig. 11,
// practical in simulation only under the fiber engine.
#include <cstdio>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

void run_machine(const model::MachineConfig& machine, int nodes) {
  const int nranks = nodes * machine.gpus_per_node;
  std::printf("\n# Fig. 11 (%s, %d nodes = %d GPUs, AISD-Ex discrete): "
              "throughput vs width\n",
              machine.name.c_str(), nodes, nranks);
  print_row({"width", "replicas", "samples/s", "local fetch %", "p50 [ms]"});

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = nranks;
  sc.local_batch = 128;
  sc.epochs = 2;
  sc.num_samples = scaled_samples(nranks, sc.local_batch, /*min_steps=*/2);
  sc.ddstore.charge_replica_preload = false;

  StagedData data(machine, sc.kind, sc.num_samples, nranks,
                  /*with_pff=*/false);

  double base = 0;
  for (int width = machine.gpus_per_node * 2; width <= nranks; width *= 2) {
    if (nranks % width != 0) continue;
    Scenario run = sc;
    run.ddstore.width = width;
    const auto result = run_training(data, run, BackendKind::DDStore);
    const auto& st = result.ddstore_stats;
    const double local_pct =
        100.0 * static_cast<double>(st.local_gets) /
        static_cast<double>(st.local_gets + st.remote_gets);
    const double tput = result.mean_throughput();
    if (base == 0) base = tput;
    print_row({std::to_string(width), std::to_string(nranks / width),
               fmt(tput, 0), fmt(local_pct, 1),
               fmt(result.latencies.percentile(50) * 1e3)});
  }
  std::printf("# paper: width changes throughput by <10%%\n");
}

}  // namespace

int main() {
  // Paper scale: 64 nodes (Summit widths 12..384, Perlmutter 8..256).
  run_machine(model::summit(), 64);
  run_machine(model::perlmutter(), 64);
  // Full machine width: 256 nodes = 1536 / 1024 GPUs.
  run_machine(model::summit(), 256);
  run_machine(model::perlmutter(), 256);
  return 0;
}
