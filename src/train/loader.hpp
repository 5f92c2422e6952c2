// DataLoader: the torch.utils.data.DataLoader-like facade (§3.2).
//
// Combines a Sampler with a DataBackend and yields collated GraphBatches,
// recording the per-sample loading latency the paper's Fig. 6/12 report.
// PrefetchingLoader is the double-buffered variant: it loads whole batches
// through DataBackend::load_batch (engaging DDStore's fetch planner) and
// overlaps the fetch of batch k+1 with the caller's compute of batch k.
#pragma once

#include <algorithm>
#include <deque>
#include <optional>

#include "common/stats.hpp"
#include "common/tracing/tracer.hpp"
#include "graph/batch.hpp"
#include "train/backend.hpp"
#include "train/sampler.hpp"

namespace dds::train {

class DataLoader {
 public:
  DataLoader(DataBackend& backend, Sampler& sampler,
             model::VirtualClock& clock)
      : backend_(&backend), sampler_(&sampler), clock_(&clock) {}

  /// Collective: prepares the epoch's permutation and resets the cursor.
  void begin_epoch(std::uint64_t epoch, simmpi::Comm& comm) {
    sampler_->begin_epoch(epoch, comm);
    backend_->epoch_start();
    tracer_ = comm.tracer();
    step_ = 0;
  }

  /// Loads and collates the next batch; nullopt at epoch end.
  std::optional<graph::GraphBatch> next() {
    if (step_ >= sampler_->steps_per_epoch()) return std::nullopt;
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::Train, "sample", clock_->now());
    }
    const auto ids = sampler_->batch_ids(step_++);
    std::vector<graph::GraphSample> samples;
    samples.reserve(ids.size());
    {
      tracing::Span span(tracer_, *clock_, tracing::Category::Train,
                         "load_batch");
      for (const auto id : ids) {
        const double t0 = clock_->now();
        samples.push_back(backend_->load(id));
        latencies_.add(clock_->now() - t0);
      }
    }
    return graph::GraphBatch::collate(samples);
  }

  std::uint64_t steps_per_epoch() const { return sampler_->steps_per_epoch(); }
  const LatencyRecorder& latencies() const { return latencies_; }

 private:
  DataBackend* backend_;
  Sampler* sampler_;
  model::VirtualClock* clock_;
  tracing::EventTracer* tracer_ = nullptr;  ///< set per-epoch from the comm
  LatencyRecorder latencies_;
  std::uint64_t step_ = 0;
};

struct PrefetchConfig {
  /// Batches the loader may stage ahead of the consumer.  0 disables
  /// prefetching entirely (strictly serial fetch -> compute, the baseline
  /// bench_ablation_coalesce compares against); 1 is classic double
  /// buffering; deeper buffers only help when fetch times are bursty.
  int depth = 1;
  /// Fraction of the overlapped window that cannot actually hide (rho):
  /// collation, page pinning, and memory-bandwidth interference between the
  /// loader and compute.  A step whose fetch F overlaps compute C costs
  /// max(F, C) + rho * min(F, C) instead of F + C.
  double non_overlap_fraction = 0.05;
};

/// Double-buffered batch loader.  The consumer alternates next() and
/// compute_window(C): next() hands over a staged batch (or pays an exposed
/// fetch when the buffer is empty — always the case for the epoch's first
/// batch), and compute_window(C) models compute of C seconds during which
/// the loader refills its buffer, charging max(F, C) + rho * min(F, C) for
/// the window instead of F + C.
///
/// Single-clock realization: the refill fetches advance this rank's virtual
/// clock first (real byte movement through the backend), then the window end
/// is pushed to t0 + max(F, C) + rho * min(F, C) — a forward-only adjustment
/// (the clock sits at t0 + F <= the window end), so it composes with the
/// monotonic VirtualClock and with shared-resource queueing.  The hidden
/// seconds, (1 - rho) * min(F, C), accumulate in overlap_hidden_seconds().
class PrefetchingLoader {
 public:
  PrefetchingLoader(DataBackend& backend, Sampler& sampler,
                    model::VirtualClock& clock, PrefetchConfig config = {})
      : backend_(&backend), sampler_(&sampler), clock_(&clock),
        config_(config) {
    DDS_CHECK(config.depth >= 0);
    DDS_CHECK(config.non_overlap_fraction >= 0.0 &&
              config.non_overlap_fraction <= 1.0);
  }

  /// Collective: prepares the epoch's permutation, resets the cursor and
  /// drops any batches staged for the previous epoch.
  void begin_epoch(std::uint64_t epoch, simmpi::Comm& comm) {
    sampler_->begin_epoch(epoch, comm);
    backend_->epoch_start();
    tracer_ = comm.tracer();
    step_ = 0;
    ready_.clear();
  }

  /// Next batch in epoch order; nullopt once every batch was consumed.
  /// Staged batches are free here (their fetch was charged inside an
  /// earlier compute window); an empty buffer pays the fetch in full.
  std::optional<graph::GraphBatch> next() {
    if (!ready_.empty()) {
      graph::GraphBatch batch = std::move(ready_.front());
      ready_.pop_front();
      return batch;
    }
    if (step_ >= sampler_->steps_per_epoch()) return std::nullopt;
    return fetch_next();
  }

  /// Models `compute_seconds` of consumer compute overlapping the fetch of
  /// upcoming batches.  Refills the buffer up to `depth` batches or until
  /// the window is exhausted, whichever comes first, then advances the
  /// clock to the overlapped window end.  With depth 0 this is exactly
  /// clock.advance(compute_seconds).
  void compute_window(double compute_seconds) {
    DDS_CHECK(compute_seconds >= 0.0);
    const double t0 = clock_->now();
    double fetched = 0.0;
    while (static_cast<int>(ready_.size()) < config_.depth &&
           step_ < sampler_->steps_per_epoch()) {
      ready_.push_back(fetch_next());
      fetched = clock_->now() - t0;
      // Fetching past the window's end cannot hide; leave the rest of the
      // buffer for later windows.
      if (fetched >= compute_seconds) break;
    }
    const double lo = std::min(fetched, compute_seconds);
    const double hi = std::max(fetched, compute_seconds);
    clock_->advance_to(t0 + hi + config_.non_overlap_fraction * lo);
    hidden_ += (1.0 - config_.non_overlap_fraction) * lo;
  }

  std::uint64_t steps_per_epoch() const { return sampler_->steps_per_epoch(); }
  /// Cumulative fetch seconds hidden under compute windows.
  double overlap_hidden_seconds() const { return hidden_; }
  const LatencyRecorder& latencies() const { return latencies_; }
  const PrefetchConfig& config() const { return config_; }

 private:
  graph::GraphBatch fetch_next() {
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::Train, "sample", clock_->now());
    }
    const auto ids = sampler_->batch_ids(step_++);
    const double t0 = clock_->now();
    const auto samples = [&] {
      // Refill fetches run inside the consumer's compute window, so this
      // span is what makes prefetch overlap visible on the timeline.
      tracing::Span span(tracer_, *clock_, tracing::Category::Train,
                         "load_batch");
      return backend_->load_batch(ids);
    }();
    const double per_sample =
        (clock_->now() - t0) / static_cast<double>(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) latencies_.add(per_sample);
    return graph::GraphBatch::collate(samples);
  }

  DataBackend* backend_;
  Sampler* sampler_;
  model::VirtualClock* clock_;
  tracing::EventTracer* tracer_ = nullptr;  ///< set per-epoch from the comm
  PrefetchConfig config_;
  LatencyRecorder latencies_;
  std::deque<graph::GraphBatch> ready_;
  double hidden_ = 0.0;
  std::uint64_t step_ = 0;  ///< next batch index to *fetch*
};

}  // namespace dds::train
