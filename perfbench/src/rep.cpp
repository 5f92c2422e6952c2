#include "rep.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "core/ddstore.hpp"
#include "faults/chaos.hpp"
#include "formats/cff.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

namespace {

using dds::simmpi::Comm;

constexpr int kProbeBarriers = 16;

/// Scaled-down datasets get a page cache scaled by the same factor, so the
/// cache-to-dataset ratio matches the paper-scale machine.
dds::model::FsParams scaled_fs_params(const Workload& w) {
  dds::model::FsParams p = w.machine.fs;
  const auto& spec = dds::datagen::dataset_spec(w.kind);
  const double scale = static_cast<double>(w.num_samples) /
                       static_cast<double>(spec.full_num_graphs);
  p.page_cache_bytes_per_node = std::max<std::uint64_t>(
      p.block_bytes * 4,
      static_cast<std::uint64_t>(
          static_cast<double>(p.page_cache_bytes_per_node) * scale));
  return p;
}

/// The store configuration with the byte budgets resolved from the
/// dataset's measured mean sample size.
dds::core::DDStoreConfig store_config(const Workload& w,
                                      const GroundTruth& truth) {
  dds::core::DDStoreConfig cfg = w.store;
  const int width = cfg.width == 0 ? w.nranks : cfg.width;
  const double mean = truth.mean_sample_bytes();
  if (w.cache_share > 0) {
    const double working_set =
        static_cast<double>(w.num_samples) / w.nranks * mean;
    cfg.cache_capacity_bytes =
        static_cast<std::uint64_t>(w.cache_share * working_set);
  }
  if (w.staged_set_share > 0) {
    const double cold = (1.0 - cfg.tiered.hot_fraction) *
                        static_cast<double>(w.num_samples) / width * mean;
    cfg.tiered.staged_set_bytes =
        static_cast<std::uint64_t>(w.staged_set_share * cold);
  }
  return cfg;
}

/// Host window over a phase that also brackets the fiber switch count and
/// the checking time spent inside it.
struct MeteredWindow {
  PhaseWindow wall;
  std::uint64_t switches0 = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t switches1 = 0;
  double check0 = std::numeric_limits<double>::infinity();
  double check1 = -std::numeric_limits<double>::infinity();

  void open(const Probe& p) {
    wall.open();
    switches0 = std::min(switches0, p.fibers->switch_count());
    check0 = std::min(check0, p.check_host_s);
  }
  void close(const Probe& p) {
    wall.close();
    switches1 = std::max(switches1, p.fibers->switch_count());
    check1 = std::max(check1, p.check_host_s);
  }
  double host_s() const { return wall.seconds() - (check1 - check0); }
};

struct JobSpec {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  dds::core::DDStoreConfig store;
  std::uint64_t input_dim = 0;
  int epochs = 0;
  bool traced = false;
  const dds::faults::FaultConfig* faults = nullptr;  ///< null = fault-free
  HostClock::time_point rep_start;
};

/// Runs one job (runtime + store + trainer) over an already-staged
/// container and fills the job-level fields of `out`.
void run_job(const JobSpec& job, dds::fs::ParallelFileSystem& fs,
             const dds::formats::SampleReader& cff, Probe& probe,
             RepResult& out) {
  const Workload& w = *job.w;
  fs.reset_time_state();

  const auto rt_start = HostClock::now();
  dds::simmpi::Runtime rt(w.nranks, w.machine, job.seed + 2,
                          /*deterministic=*/true,
                          dds::simmpi::Engine::Fibers);
  if (job.faults != nullptr) {
    rt.set_fault_injector(
        std::make_shared<dds::faults::FaultInjector>(*job.faults, w.nranks));
  }
  const std::uint64_t samples_per_rank =
      static_cast<std::uint64_t>(job.epochs) * (w.num_samples / w.nranks);
  if (job.traced) rt.enable_tracing(samples_per_rank * 16 + 4096);
  probe.fibers = rt.fiber_scheduler();
  DDS_CHECK_MSG(probe.fibers != nullptr, "benchmark needs the fiber engine");
  out.fiber_stack_bytes = probe.fibers->stack_bytes();
  out.nranks = w.nranks;

  const TimedReader reader(cff, probe);
  bool entered = false;
  PhaseWindow ctor;
  std::vector<PhaseWindow> barriers(kProbeBarriers);
  MeteredWindow timed;
  PhaseWindow gather;
  std::uint64_t reads_before_ctor = 0;
  double read_s_before_ctor = 0;
  std::vector<std::vector<double>> epoch_entry(
      static_cast<std::size_t>(w.nranks));

  rt.run([&](Comm& comm) {
    if (!entered) {
      // Every fiber stack is mapped before the first rank body runs.
      entered = true;
      out.runtime_start_host_s = seconds_since(rt_start);
      reads_before_ctor = probe.reader_reads;
      read_s_before_ctor = probe.reader_host_s;
    }
    dds::fs::FsClient client(fs, w.machine.node_of_rank(comm.world_rank()),
                             comm.clock(), comm.rng());

    comm.barrier();
    ctor.open();
    dds::core::DDStore store(comm, reader, client, job.store);
    comm.barrier();
    ctor.close();
    out.preload_reads = probe.reader_reads - reads_before_ctor;
    out.preload_read_host_s = probe.reader_host_s - read_s_before_ctor;
    const double preload = store.stats().preload_seconds;

    // Timed epochs start from zeroed clocks, drained shared resources and
    // zeroed counters (rank 0 resets shared state between barriers; each
    // rank zeroes its own clock).  A traced job drops its set-up events
    // here too, without an extra barrier: tracing must not move modeled
    // time.
    comm.barrier();
    if (comm.rank() == 0) {
      comm.runtime().network().reset();
      fs.reset_time_state();
      if (job.traced) rt.clear_traces();
    }
    comm.barrier();
    comm.clock().reset();
    comm.barrier();
    store.reset_stats();

    dds::train::DDStoreBackend inner(store);
    TimedBackend backend(inner, comm.clock(), probe);
    dds::train::GlobalShuffleSampler shuffle(w.num_samples, w.local_batch,
                                             job.seed + 1);
    TimedSampler sampler(shuffle, probe);
    dds::train::SimTrainerConfig tcfg;
    tcfg.input_dim = job.input_dim;
    tcfg.output_dim = dds::datagen::dataset_spec(w.kind).target_dim;
    tcfg.loader_mode = w.loader;
    tcfg.prefetch_depth = w.prefetch_depth;
    dds::train::SimulatedTrainer trainer(comm, backend, sampler, w.machine,
                                         tcfg);

    std::vector<dds::train::EpochReport> reports;
    auto& entry = epoch_entry[static_cast<std::size_t>(comm.rank())];
    // Every rank finishes an epoch inside run_epoch's closing collectives,
    // so the first rank in or out of the loop marks the recorded interval.
    timed.open(probe);
    probe.recording = true;
    for (int e = 0; e < job.epochs; ++e) {
      entry.push_back(comm.clock().now());
      reports.push_back(trainer.run_epoch(static_cast<std::uint64_t>(e)));
    }
    probe.recording = false;
    timed.close(probe);

    gather.open();
    const dds::LatencyRecorder lat = trainer.gather_latencies();
    gather.close();

    // Barrier probe, after everything modeled is captured so it adds to
    // neither set-up nor the timed epochs.
    for (auto& b : barriers) {
      comm.barrier();
      b.open();
      comm.barrier();
      b.close();
    }

    double max_preload = 0;
    for (const double p : comm.allgather_untimed(preload)) {
      max_preload = std::max(max_preload, p);
    }
    const auto fs_all = comm.allgather_untimed(client.stats());
    if (comm.rank() == 0) {
      out.reports = std::move(reports);
      out.load_p50_s = lat.percentile(50.0);
      out.load_p99_s = lat.percentile(99.0);
      out.latency_samples = lat.count();
      out.preload_s = max_preload;
      for (const auto& s : fs_all) {
        out.fs.opens += s.opens;
        out.fs.reads += s.reads;
        out.fs.cache_hits += s.cache_hits;
        out.fs.cache_misses += s.cache_misses;
        out.fs.nominal_bytes_read += s.nominal_bytes_read;
      }
    }
    comm.barrier();  // nobody tears down while peers still read
  });

  out.ctor_host_s = ctor.seconds();
  std::vector<double> us;
  for (const auto& b : barriers) us.push_back(b.seconds() * 1e6);
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  out.barrier_host_us = us[us.size() / 2];
  out.gather_host_s = gather.seconds();
  out.epochs_host_s = timed.host_s();
  out.fiber_switches = timed.switches1 - timed.switches0;
  for (const auto& r : out.reports) out.global_samples += r.global_samples;
  out.setup_s =
      std::chrono::duration<double>(timed.wall.start - job.rep_start).count();

  if (!job.traced) return;
  const auto traces = rt.traces();
  for (int r = 0; r < w.nranks; ++r) {
    const auto* tracer = traces[static_cast<std::size_t>(r)];
    out.trace_events += tracer->size();
    out.trace_dropped += tracer->dropped();
    const std::vector<dds::tracing::Event> events = tracer->snapshot();
    const auto& entry = epoch_entry[static_cast<std::size_t>(r)];
    for (std::size_t e = 0; e < out.reports.size(); ++e) {
      // run_epoch opens with a barrier; the epoch clock starts when it
      // ends, and the epoch lasts the job-wide (max over ranks) time.
      const dds::tracing::Event* opening = nullptr;
      for (const auto& ev : events) {
        if (ev.category == dds::tracing::Category::Simmpi &&
            std::strcmp(ev.name, "barrier") == 0 && ev.t0 >= entry[e] &&
            (opening == nullptr || ev.seq < opening->seq)) {
          opening = &ev;
        }
      }
      DDS_CHECK_MSG(opening != nullptr, "epoch-opening barrier not traced");
      add_self_times(events, opening->t1,
                     opening->t1 + out.reports[e].epoch_seconds, out.self);
    }
  }
}

}  // namespace

double RepResult::mean_epoch_s() const {
  double s = 0;
  for (const auto& r : reports) s += r.epoch_seconds;
  return s / static_cast<double>(reports.size());
}

double RepResult::mean_throughput() const {
  double s = 0;
  for (const auto& r : reports) s += r.throughput;
  return s / static_cast<double>(reports.size());
}

std::vector<double> RepResult::modeled_signature() const {
  std::vector<double> sig = {load_p50_s, load_p99_s,
                             static_cast<double>(latency_samples), preload_s,
                             static_cast<double>(fs.reads),
                             static_cast<double>(fs.cache_hits),
                             static_cast<double>(fiber_switches)};
  for (const auto& r : reports) {
    sig.push_back(r.epoch_seconds);
    sig.push_back(r.throughput);
    sig.push_back(r.overlap_hidden_s);
    for (const auto& m : r.metrics) sig.push_back(static_cast<double>(m.value));
  }
  return sig;
}

std::unique_ptr<dds::datagen::SyntheticDataset> make_workload_dataset(
    const Workload& w, std::uint64_t seed) {
  return dds::datagen::make_dataset(w.kind, w.num_samples, seed);
}

RepResult run_rep(const Workload& w, std::uint64_t seed,
                  const GroundTruth& truth, bool traced) {
  RepResult out;
  const auto rep_start = HostClock::now();
  Probe& probe = out.probe;
  probe.truth = &truth;

  dds::fs::ParallelFileSystem fs(scaled_fs_params(w),
                                 w.machine.nodes_for_ranks(w.nranks));
  const TimedDataset dataset(make_workload_dataset(w, seed), probe);
  const auto stage_start = HostClock::now();
  dds::formats::CffWriter::stage(
      fs, "cff", dataset,
      static_cast<std::uint32_t>(std::min<std::uint64_t>(8, w.num_samples)));
  out.stage_host_s = seconds_since(stage_start) - probe.make_host_s;
  const dds::formats::CffReader cff(
      fs, "cff", dataset.spec().nominal_cff_sample_bytes());
  const std::uint64_t input_dim = dataset.make(0).node_feature_dim;

  JobSpec job;
  job.w = &w;
  job.seed = seed;
  job.store = store_config(w, truth);
  job.input_dim = input_dim;
  job.epochs = w.epochs;
  job.traced = traced;
  job.rep_start = rep_start;

  dds::faults::FaultConfig faults;
  if (w.straggler) {
    // Calibrate T, the fault-free epoch time, on a scratch job; the
    // straggler schedule is authored in units of T.
    RepResult calib;
    Probe scratch;
    scratch.truth = &truth;
    JobSpec free_job = job;
    free_job.epochs = 1;
    free_job.traced = false;
    run_job(free_job, fs, cff, scratch, calib);
    for (const auto& s : dds::faults::builtin_scenarios(w.nranks)) {
      if (s.name == "single_straggler") {
        faults = dds::faults::materialize(s.faults,
                                          calib.reports.front().epoch_seconds);
      }
    }
    DDS_CHECK_MSG(faults.any(), "single_straggler scenario not found");
    job.faults = &faults;
  }

  run_job(job, fs, cff, probe, out);
  probe.fibers = nullptr;  // the runtime it pointed into is gone
  return out;
}

}  // namespace perfbench
