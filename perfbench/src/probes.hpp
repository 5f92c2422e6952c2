// Outside-in probes: decorators over the library's public virtual seams
// that time each call on the host clock (and, where a rank clock is in
// reach, on the modeled clock), plus the ground-truth byte check.
//
// Every simulated rank is a fiber on one OS thread (the benchmark pins the
// fiber engine), so the shared accumulators below are touched by exactly
// one thread and need no locking.  A call that suspends its fiber would
// also time other ranks' work; TimedBackend counts such calls so the
// per-call host numbers can be trusted only when that count is 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "datagen/dataset.hpp"
#include "formats/reader.hpp"
#include "simmpi/fiber.hpp"
#include "train/backend.hpp"
#include "train/sampler.hpp"

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// Serialized bytes of every sample, generated from an undecorated dataset
/// instance so the check never goes through the code it checks.
class GroundTruth {
 public:
  explicit GroundTruth(const dds::datagen::SyntheticDataset& dataset) {
    offsets_.reserve(dataset.size() + 1);
    offsets_.push_back(0);
    for (std::uint64_t i = 0; i < dataset.size(); ++i) {
      const dds::ByteBuffer b = dataset.make(i).to_bytes();
      bytes_.insert(bytes_.end(), b.begin(), b.end());
      offsets_.push_back(bytes_.size());
    }
  }

  std::uint64_t size() const { return offsets_.size() - 1; }
  double mean_sample_bytes() const {
    return static_cast<double>(bytes_.size()) / static_cast<double>(size());
  }

  /// True when `sample` is sample `id` and serializes to the same bytes.
  bool matches(const dds::graph::GraphSample& sample, std::uint64_t id) const {
    if (id >= size() || sample.id != id) return false;
    const dds::ByteBuffer got = sample.to_bytes();
    const std::size_t len = offsets_[id + 1] - offsets_[id];
    return got.size() == len &&
           std::memcmp(got.data(), bytes_.data() + offsets_[id], len) == 0;
  }

 private:
  dds::ByteBuffer bytes_;
  std::vector<std::size_t> offsets_;
};

/// Host-time window over a collective phase: opened by the first rank to
/// enter it, closed by the last rank to leave it.  Ranks interleave on one
/// thread, so the window is the phase's wall time.
struct PhaseWindow {
  HostClock::time_point start = HostClock::time_point::max();
  HostClock::time_point end = HostClock::time_point::min();

  void open() { start = std::min(start, HostClock::now()); }
  void close() { end = std::max(end, HostClock::now()); }
  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Everything the decorators accumulate during one repetition.
struct Probe {
  const GroundTruth* truth = nullptr;
  dds::simmpi::FiberScheduler* fibers = nullptr;

  // datagen::SyntheticDataset::make
  double make_host_s = 0;
  std::uint64_t samples_made = 0;
  // formats::SampleReader::read_bytes / read
  std::uint64_t reader_reads = 0;
  double reader_host_s = 0;
  // train::DataBackend (fetch path)
  bool recording = false;  ///< only timed epochs are recorded
  std::uint64_t fetch_calls = 0;
  std::uint64_t fetch_samples = 0;
  std::uint64_t fetch_calls_yielded = 0;
  double fetch_host_s = 0;
  double fetch_modeled_s = 0;
  dds::LatencyRecorder call_host_us;
  // train::Sampler::batch_ids
  double sampler_host_s = 0;
  std::uint64_t sampler_ids = 0;
  // correctness
  std::uint64_t loads_requested = 0;
  std::uint64_t loads_failed = 0;
  double check_host_s = 0;
};

/// datagen::SyntheticDataset decorator: times make().
class TimedDataset final : public dds::datagen::SyntheticDataset {
 public:
  TimedDataset(std::unique_ptr<dds::datagen::SyntheticDataset> inner,
               Probe& probe)
      : SyntheticDataset(inner->spec(), inner->size(), inner->seed()),
        inner_(std::move(inner)),
        probe_(&probe) {}

  dds::graph::GraphSample make(std::uint64_t index) const override {
    const auto t0 = HostClock::now();
    dds::graph::GraphSample s = inner_->make(index);
    probe_->make_host_s += seconds_since(t0);
    ++probe_->samples_made;
    return s;
  }

 private:
  std::unique_ptr<dds::datagen::SyntheticDataset> inner_;
  Probe* probe_;
};

/// formats::SampleReader decorator: times and counts read_bytes(), the
/// call the store's preload (and its FS fallback) makes.
class TimedReader final : public dds::formats::SampleReader {
 public:
  TimedReader(const dds::formats::SampleReader& inner, Probe& probe)
      : inner_(&inner), probe_(&probe) {}

  std::uint64_t num_samples() const override { return inner_->num_samples(); }
  dds::ByteBuffer read_bytes(std::uint64_t index,
                             dds::fs::FsClient& client) const override {
    const auto t0 = HostClock::now();
    dds::ByteBuffer b = inner_->read_bytes(index, client);
    probe_->reader_host_s += seconds_since(t0);
    ++probe_->reader_reads;
    return b;
  }
  dds::ByteBuffer read_bytes_raw(std::uint64_t index) const override {
    return inner_->read_bytes_raw(index);
  }
  dds::graph::GraphSample read(std::uint64_t index,
                               dds::fs::FsClient& client) const override {
    return inner_->read(index, client);
  }
  std::uint64_t nominal_sample_bytes() const override {
    return inner_->nominal_sample_bytes();
  }

 private:
  const dds::formats::SampleReader* inner_;
  Probe* probe_;
};

/// train::DataBackend decorator: host and modeled time of every load call,
/// then (untimed) a byte-for-byte check of every returned sample.
class TimedBackend final : public dds::train::DataBackend {
 public:
  TimedBackend(dds::train::DataBackend& inner,
               const dds::model::VirtualClock& clock, Probe& probe)
      : inner_(&inner), clock_(&clock), probe_(&probe) {}

  dds::graph::GraphSample load(std::uint64_t id) override {
    const Mark m = begin();
    dds::graph::GraphSample s = inner_->load(id);
    end(m, 1);
    check(std::span<const std::uint64_t>(&id, 1),
          std::span<const dds::graph::GraphSample>(&s, 1));
    return s;
  }

  std::vector<dds::graph::GraphSample> load_batch(
      std::span<const std::uint64_t> ids) override {
    const Mark m = begin();
    std::vector<dds::graph::GraphSample> out = inner_->load_batch(ids);
    end(m, ids.size());
    check(ids, out);
    return out;
  }

  std::uint64_t num_samples() const override { return inner_->num_samples(); }
  std::uint64_t nominal_sample_bytes() const override {
    return inner_->nominal_sample_bytes();
  }
  std::string name() const override { return inner_->name(); }
  void epoch_start() override { inner_->epoch_start(); }
  const dds::MetricsRegistry* metrics() const override {
    return inner_->metrics();
  }

 private:
  struct Mark {
    HostClock::time_point host;
    double modeled;
    std::uint64_t switches;
  };

  Mark begin() const {
    return {HostClock::now(), clock_->now(), probe_->fibers->switch_count()};
  }

  void end(const Mark& m, std::size_t samples) {
    const double host = seconds_since(m.host);
    if (!probe_->recording) return;
    ++probe_->fetch_calls;
    probe_->fetch_samples += samples;
    probe_->fetch_host_s += host;
    probe_->fetch_modeled_s += clock_->now() - m.modeled;
    probe_->call_host_us.add(host * 1e6);
    if (probe_->fibers->switch_count() != m.switches) {
      ++probe_->fetch_calls_yielded;
    }
  }

  void check(std::span<const std::uint64_t> ids,
             std::span<const dds::graph::GraphSample> got) {
    if (!probe_->recording) return;
    const auto t0 = HostClock::now();
    probe_->loads_requested += ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i >= got.size() || !probe_->truth->matches(got[i], ids[i])) {
        ++probe_->loads_failed;
      }
    }
    probe_->check_host_s += seconds_since(t0);
  }

  dds::train::DataBackend* inner_;
  const dds::model::VirtualClock* clock_;
  Probe* probe_;
};

/// train::Sampler decorator: times batch_ids() (begin_epoch is a
/// collective and is passed through untimed).
class TimedSampler final : public dds::train::Sampler {
 public:
  TimedSampler(dds::train::Sampler& inner, Probe& probe)
      : inner_(&inner), probe_(&probe) {}

  void begin_epoch(std::uint64_t epoch, dds::simmpi::Comm& comm) override {
    inner_->begin_epoch(epoch, comm);
  }
  std::uint64_t steps_per_epoch() const override {
    return inner_->steps_per_epoch();
  }
  std::vector<std::uint64_t> batch_ids(std::uint64_t step) const override {
    const auto t0 = HostClock::now();
    std::vector<std::uint64_t> ids = inner_->batch_ids(step);
    if (probe_->recording) {
      probe_->sampler_host_s += seconds_since(t0);
      probe_->sampler_ids += ids.size();
    }
    return ids;
  }
  std::vector<std::uint64_t> batch_slots(std::uint64_t step) const override {
    return inner_->batch_slots(step);
  }
  std::uint64_t local_batch() const override { return inner_->local_batch(); }

 private:
  dds::train::Sampler* inner_;
  Probe* probe_;
};

}  // namespace perfbench
