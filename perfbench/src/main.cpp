// ddsbench: one workload per invocation, two clocks, one JSON result.
//
//   ddsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload (set-up included) with the same seed until
// --seconds of host time have passed, at least twice.  Modeled numbers
// must be bit-identical across the repetitions; host numbers are their
// medians.  --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer metrics (one more, traced repetition gives the modeled self
// times).  The last stdout line is the JSON result; lines before it are
// for people.  Exit status is 0 only when every check passed.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "rep.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have[1] = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      have[2] = end != val && *end == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
      have[3] = a.trace || std::strcmp(val, "0") == 0;
    } else {
      throw dds::ConfigError("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3])) {
    throw dds::ConfigError(
        "usage: ddsbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A counter's total over the rep's timed epochs (summed across ranks).
double counter(const RepResult& r, const char* name) {
  std::uint64_t total = 0;
  for (const auto& e : r.reports) total += e.metric(name);
  return static_cast<double>(total);
}

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS
/// counter, so each repetition's peak is its own (the ground truth, which
/// stays resident, is part of every repetition's peak).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw dds::InternalError("VmHWM missing from /proc/self/status");
}

/// Ordered (name, value, unit) list, printed as the result's `metrics`.
class MetricList {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(),
                    std::isfinite(items_[i].value) ? items_[i].value : 0.0,
                    items_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void print_table() const {
    for (const auto& m : items_) {
      std::printf("#   %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Every modeled self-time row the ledger reports, in table order.  Spans
/// recorded under any other name fold into `other.self_s`.
const char* const kSelfTimeRows[] = {
    "simmpi.barrier",       "simmpi.bcast",         "simmpi.allreduce",
    "simmpi.allgather",     "simmpi.allgatherv",    "simmpi.alltoallv",
    "simmpi.gatherv",       "simmpi.send",          "simmpi.recv",
    "simmpi.win_get",       "simmpi.win_getv",      "simmpi.win_put",
    "simmpi.win_accumulate", "simmpi.win_fence",    "fetch.batch_coalesced",
    "fetch.batch_per_target", "fetch.plan",         "cache.cache_hit",
    "cache.staged_hit",     "transport.rma_get",    "transport.rma_getv",
    "resilience.backoff",   "resilience.fs_fallback", "train.load",
    "train.load_batch",     "train.collate",        "train.forward",
    "train.backward",       "train.allreduce_grad", "train.optimizer",
};

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// The layer-isolation self-check: each workload must keep exercising the
/// layer it exists for, and the others must leave it alone.
void check_isolation(const Workload& w, const RepResult& r, Checks& checks) {
  const bool straggler = w.name == "straggler8";
  const bool outofcore = w.name == "outofcore8";
  const double fired = counter(r, "hedged_fetches");
  const double staged = counter(r, "staged_bytes");
  checks.expect(straggler ? fired > 0 : fired == 0,
                "hedge.fired must be > 0 exactly on straggler8 (got " +
                    std::to_string(fired) + ")");
  checks.expect(outofcore ? staged > 0 : staged == 0,
                "staging.staged_bytes must be > 0 exactly on outofcore8 (got " +
                    std::to_string(staged) + ")");
  if (w.name == "hotpath8") {
    const double hits = counter(r, "cache_hits");
    const double lookups = hits + counter(r, "cache_misses");
    checks.expect(hits > 0 && hits < lookups,
                  "cache.hit_ratio must lie strictly inside (0, 1) on "
                  "hotpath8");
  }
  const double sps = r.fiber_switches_per_sample();
  const bool scale = w.name == "scale1024";
  checks.expect(scale ? sps > kScaleSwitchesPerSample
                      : sps < kScaleSwitchesPerSample,
                "simmpi.fiber_switches_per_sample must be largest on "
                "scale1024 (threshold " +
                    std::to_string(kScaleSwitchesPerSample) + ", got " +
                    std::to_string(sps) + ")");
}

void add_end_to_end(const std::vector<RepResult>& reps, double peak_rss,
                    MetricList& m) {
  const RepResult& r = reps.front();
  std::vector<double> setup, speed;
  for (const auto& x : reps) {
    setup.push_back(x.setup_s * x.host_scale());
    speed.push_back(x.host_samples_per_s() / x.host_scale());
  }
  m.add("setup_s", median(setup), "s");
  m.add("host_samples_per_s", median(speed), "samples/s");
  m.add("peak_rss_mib", peak_rss, "MiB");
  m.add("modeled_samples_per_s", r.mean_throughput(), "samples/s");
  m.add("modeled_load_p50_us", r.load_p50_s * 1e6, "us");
  m.add("modeled_load_p99_us", r.load_p99_s * 1e6, "us");
  m.add("modeled_epoch_s", r.mean_epoch_s(), "s");
  m.add("modeled_preload_s", r.preload_s, "s");
}

void add_per_layer(const std::vector<RepResult>& reps, const RepResult& traced,
                   Checks& checks, MetricList& m) {
  const RepResult& r = reps.front();
  const auto med = [&](auto&& f) {
    std::vector<double> v;
    for (const auto& x : reps) v.push_back(f(x));
    return median(v);
  };
  const double samples = static_cast<double>(r.probe.fetch_samples);
  const double epochs = static_cast<double>(r.reports.size());

  m.add("host.reference_kernel_ms",
        med([](const RepResult& x) { return x.kernel_s * 1e3; }), "ms");
  m.add("host.raw_setup_s", med([](const RepResult& x) { return x.setup_s; }),
        "s");
  m.add("host.raw_samples_per_s",
        med([](const RepResult& x) { return x.host_samples_per_s(); }),
        "samples/s");
  m.add("datagen.make_host_s", med([](const RepResult& x) {
          return x.probe.make_host_s;
        }), "s");
  m.add("datagen.samples_made", static_cast<double>(r.probe.samples_made),
        "count");
  m.add("formats.stage_host_s",
        med([](const RepResult& x) { return x.stage_host_s; }), "s");
  m.add("formats.preload_reads", static_cast<double>(r.preload_reads),
        "count");
  m.add("formats.preload_read_host_s",
        med([](const RepResult& x) { return x.preload_read_host_s; }), "s");

  const double fs_lookups =
      static_cast<double>(r.fs.cache_hits + r.fs.cache_misses);
  m.add("fs.reads", static_cast<double>(r.fs.reads), "count");
  m.add("fs.page_cache_lookups", fs_lookups, "count");
  m.add("fs.page_cache_hit_ratio",
        ratio(static_cast<double>(r.fs.cache_hits), fs_lookups), "ratio");
  m.add("fs.nominal_bytes_read", static_cast<double>(r.fs.nominal_bytes_read),
        "B");

  m.add("simmpi.fiber_switches", static_cast<double>(r.fiber_switches),
        "count");
  m.add("simmpi.fiber_switches_per_sample", r.fiber_switches_per_sample(),
        "count");
  m.add("simmpi.fiber_stack_kib",
        static_cast<double>(r.fiber_stack_bytes) / 1024.0, "KiB");
  m.add("simmpi.barrier_host_us",
        med([](const RepResult& x) { return x.barrier_host_us; }), "us");
  m.add("simmpi.runtime_start_host_s",
        med([](const RepResult& x) { return x.runtime_start_host_s; }), "s");
  m.add("core.ctor_host_s",
        med([](const RepResult& x) { return x.ctor_host_s; }), "s");

  m.add("fetch.samples", samples, "count");
  m.add("fetch.calls", static_cast<double>(r.probe.fetch_calls), "count");
  m.add("fetch.calls_yielded", static_cast<double>(r.probe.fetch_calls_yielded),
        "count");
  m.add("fetch.host_ns_per_sample", med([](const RepResult& x) {
          return ratio(x.probe.fetch_host_s * 1e9,
                       static_cast<double>(x.probe.fetch_samples));
        }), "ns");
  m.add("fetch.call_host_us.p50", med([](const RepResult& x) {
          return x.probe.call_host_us.percentile(50.0);
        }), "us");
  m.add("fetch.call_host_us.p99", med([](const RepResult& x) {
          return x.probe.call_host_us.percentile(99.0);
        }), "us");
  m.add("fetch.modeled_us_per_sample",
        ratio(r.probe.fetch_modeled_s * 1e6, samples), "us");

  const double hits = counter(r, "cache_hits");
  const double lookups = hits + counter(r, "cache_misses");
  m.add("cache.lookups", lookups, "count");
  m.add("cache.hit_ratio", ratio(hits, lookups), "ratio");
  m.add("cache.evictions", counter(r, "cache_evictions"), "count");

  const double transfers = counter(r, "coalesced_transfers");
  m.add("plan.lock_epochs_per_sample",
        ratio(counter(r, "lock_epochs"), samples), "ratio");
  m.add("plan.coalesced_transfers", transfers, "count");
  m.add("plan.segments_per_transfer",
        ratio(counter(r, "coalesced_segments"), transfers), "ratio");

  const double remote = counter(r, "remote_gets");
  const double gets = remote + counter(r, "local_gets");
  const double fetched = counter(r, "bytes_fetched");
  m.add("transport.gets", gets, "count");
  m.add("transport.remote_fraction", ratio(remote, gets), "ratio");
  m.add("transport.bytes_fetched", fetched, "B");

  m.add("resilience.retries", counter(r, "retries"), "count");
  m.add("resilience.failovers", counter(r, "failovers"), "count");
  m.add("verify.checksum_failures", counter(r, "checksum_failures"), "count");

  const double fired = counter(r, "hedged_fetches");
  m.add("hedge.fired", fired, "count");
  m.add("hedge.win_ratio", ratio(counter(r, "hedge_wins"), fired), "ratio");
  m.add("hedge.cancelled_bytes_ratio",
        ratio(counter(r, "hedge_cancelled_bytes"), fetched), "ratio");
  m.add("hedge.quarantine_steers", counter(r, "quarantine_steers"), "count");

  const double staged_hits = counter(r, "staged_hits");
  const double cold = staged_hits + counter(r, "cold_misses");
  m.add("staging.cold_lookups", cold, "count");
  m.add("staging.staged_hit_ratio", ratio(staged_hits, cold), "ratio");
  m.add("staging.backpressure_delays", counter(r, "stage_backpressure_delays"),
        "count");
  m.add("staging.staged_bytes", counter(r, "staged_bytes"), "B");

  dds::train::PhaseProfile profile;
  double hidden = 0;
  for (const auto& e : r.reports) {
    profile.merge(e.mean_profile);
    hidden += e.overlap_hidden_s;
  }
  const auto phase = [&](dds::train::Phase p) {
    return profile.get(p) / epochs;
  };
  m.add("train.load_s", phase(dds::train::Phase::Load), "s");
  m.add("train.collate_s", phase(dds::train::Phase::Batch), "s");
  m.add("train.forward_s", phase(dds::train::Phase::Forward), "s");
  m.add("train.backward_s", phase(dds::train::Phase::Backward), "s");
  m.add("train.allreduce_s", phase(dds::train::Phase::GradComm), "s");
  m.add("train.optimizer_s", phase(dds::train::Phase::Optimizer), "s");
  m.add("train.load_wait_share",
        ratio(phase(dds::train::Phase::Load), r.mean_epoch_s()), "ratio");
  m.add("train.overlap_hidden_s", hidden / epochs / r.nranks, "s");
  m.add("train.sampler_host_ns_per_sample", med([](const RepResult& x) {
          return ratio(x.probe.sampler_host_s * 1e9,
                       static_cast<double>(x.probe.sampler_ids));
        }), "ns");
  m.add("train.gather_latencies_host_s",
        med([](const RepResult& x) { return x.gather_host_s; }), "s");
  m.add("train.load_latency_samples", static_cast<double>(r.latency_samples),
        "count");

  // Modeled self times: mean per rank per epoch, so the rows plus
  // unattributed sum to modeled_epoch_s.
  const double windows = traced.self.window_s;
  const double scale = ratio(traced.mean_epoch_s(), windows);
  double other = 0, total = traced.self.unattributed_s;
  for (const auto& [name, v] : traced.self.self_s) {
    total += v;
    const bool listed = std::find(std::begin(kSelfTimeRows),
                                  std::end(kSelfTimeRows),
                                  name) != std::end(kSelfTimeRows);
    if (!listed) other += v;
  }
  for (const char* row : kSelfTimeRows) {
    const auto it = traced.self.self_s.find(row);
    const double v = it == traced.self.self_s.end() ? 0.0 : it->second;
    m.add(std::string(row) + ".self_s", v * scale, "s");
  }
  m.add("other.self_s", other * scale, "s");
  m.add("unattributed.self_s", traced.self.unattributed_s * scale, "s");
  checks.expect(std::abs(total - windows) <= 1e-9 * windows,
                "self times do not sum to the epoch windows");

  m.add("tracing.overhead_ratio",
        med([](const RepResult& x) {
          return x.host_samples_per_s() / x.host_scale();
        }) / (traced.host_samples_per_s() / traced.host_scale()),
        "ratio");
  m.add("tracing.events", static_cast<double>(traced.trace_events), "count");
  m.add("tracing.events_dropped", static_cast<double>(traced.trace_dropped),
        "count");
  checks.expect(traced.trace_dropped == 0,
                "the traced run dropped events; self times would be partial");
}

int run(const Args& args) {
  // A fixed mmap threshold turns off glibc's dynamic one, so a
  // repetition's peak RSS does not depend on what earlier ones freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Workload& w = find_workload(args.workload);
  // Ground truth for the byte check, outside every timed interval.
  const GroundTruth truth(*make_workload_dataset(w, args.seed));

  const auto start = HostClock::now();
  std::vector<RepResult> reps;
  std::vector<double> peaks;
  while (reps.size() < 2 || seconds_since(start) < args.seconds) {
    const double kernel = reference_kernel_s();
    reset_peak_rss();
    reps.push_back(run_rep(w, args.seed, truth, /*traced=*/false));
    peaks.push_back(peak_rss_mib());
    reps.back().kernel_s = kernel;
  }
  std::optional<RepResult> traced;
  if (args.trace) {
    const double kernel = reference_kernel_s();
    traced = run_rep(w, args.seed, truth, /*traced=*/true);
    traced->kernel_s = kernel;
  }

  Checks checks;
  std::uint64_t attempted = 0, failed = 0;
  const std::vector<double> sig = reps.front().modeled_signature();
  for (const auto& r : reps) {
    attempted += r.probe.loads_requested;
    failed += r.probe.loads_failed;
    checks.expect(r.modeled_signature() == sig,
                  "modeled results differ between same-seed repetitions");
  }
  if (traced) {
    attempted += traced->probe.loads_requested;
    failed += traced->probe.loads_failed;
    checks.expect(traced->modeled_signature() == sig,
                  "tracing changed the modeled results");
  }
  checks.expect(failed == 0, "samples were missing or not byte-identical");
  check_isolation(w, reps.front(), checks);

  MetricList metrics;
  if (args.trace) {
    add_per_layer(reps, *traced, checks, metrics);
  } else {
    add_end_to_end(reps, median(peaks), metrics);
  }

  std::printf("# workload %s seed %llu: %zu repetitions x %d epochs, "
              "%d ranks, fiber stack %zu KiB\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), w.epochs, w.nranks,
              reps.front().fiber_stack_bytes / 1024);
  std::printf("# failed_ops_fraction %.17g (%llu of %llu loads); "
              "modeled load latency over %llu samples\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(reps.front().latency_samples));
  metrics.print_table();
  for (const auto& f : checks.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
  for (const auto& f : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ddsbench: %s\n", e.what());
    return 2;
  }
}
