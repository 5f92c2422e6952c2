#include "core/fetch/engine.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/tracing/tracer.hpp"

namespace dds::core::fetch {

FetchEngine::FetchEngine(simmpi::Comm& comm, simmpi::Comm& group,
                         simmpi::Window& window, const Layout& layout,
                         const DDStoreConfig& config,
                         const formats::SampleReader& reader,
                         fs::FsClient& fs_client,
                         std::uint64_t nominal_sample_bytes,
                         MetricsRegistry& metrics)
    : metrics_(metrics),
      ctx_{&comm, &group, &window, &layout, &config, &reader, &fs_client,
           &metrics_, nominal_sample_bytes},
      decode_(config.decode),
      cache_(config.cache_capacity_bytes),
      transport_(ctx_),
      resilience_(ctx_, transport_) {
  if (config.hedge.enabled) {
    hedge_metrics_.emplace(metrics);
    ctx_.hedge = &*hedge_metrics_;
  }
  if (config.tiered.enabled()) {
    tier_metrics_.emplace(metrics);
    ctx_.tier = &*tier_metrics_;
    cold_tier_.emplace(fs_client.fs(), config.tiered.nvme, fs_client.node());
    staging_.emplace(ctx_, transport_, *cold_tier_);
  }
  if (config.locality_mode != LocalityMode::Shuffle) {
    sched_metrics_.emplace(metrics);
    ctx_.sched = &*sched_metrics_;
  }
}

void FetchEngine::account_sched(std::span<const std::uint64_t> ids) {
  if (ctx_.sched == nullptr) return;
  // Classify each unique id the way the scheduler's cost model does: a
  // zero-cost placement iff this rank's chunk owns the sample *and* the
  // sample is hot (cold-resident samples cost a staging read anywhere).
  std::vector<std::uint64_t> unique(ids.begin(), ids.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const Layout& layout = *ctx_.layout;
  const int me = ctx_.group->rank();
  SchedMetrics& sm = *ctx_.sched;
  for (const std::uint64_t id : unique) {
    if (layout.owner_of(id) == me && layout.is_hot(id)) {
      ++sm.sched_local_planned;
    } else {
      ++sm.sched_remote_planned;
      sm.sched_remote_bytes += ctx_.nominal_sample_bytes;
    }
  }
}

void FetchEngine::charge_cache_hit() {
  // A hit is modeled as constant lookup service plus one memcpy of the
  // nominal payload at CPU memory bandwidth — strictly cheaper than even a
  // local RMA get, which pays rma_local_overhead_s per transfer.
  const auto& cpu = ctx_.comm->runtime().machine().cpu;
  ctx_.clock().advance(cpu.cache_hit_service_s +
                       static_cast<double>(ctx_.nominal_sample_bytes) /
                           cpu.memcpy_bandwidth_Bps);
}

void FetchEngine::admit(std::uint64_t id, ByteSpan bytes) {
  if (!cache_.enabled()) return;
  metrics_.cache_evictions += cache_.insert(id, bytes);
}

void FetchEngine::account_get(int owner, std::uint64_t length) {
  TenantScope* tenant = ctx_.tenant;
  if (owner == ctx_.group->rank()) {
    ++metrics_.local_gets;
    if (tenant != nullptr && tenant->local_gets != nullptr) {
      ++*tenant->local_gets;
    }
  } else {
    ++metrics_.remote_gets;
    if (tenant != nullptr && tenant->remote_gets != nullptr) {
      ++*tenant->remote_gets;
    }
  }
  metrics_.bytes_fetched += length;
  metrics_.nominal_bytes_fetched += ctx_.nominal_sample_bytes;
  if (tenant != nullptr && tenant->bytes_fetched != nullptr) {
    *tenant->bytes_fetched += length;
  }
}

void FetchEngine::record_latency(double seconds) {
  metrics_.latency.add(seconds);
  if (ctx_.tenant != nullptr && ctx_.tenant->latency != nullptr) {
    ctx_.tenant->latency->add(seconds);
  }
}

ByteBuffer FetchEngine::get_bytes(std::uint64_t id) {
  const auto& entry = ctx_.registry().lookup(id);
  // Staging stage routes every cold sample before the cache stage ever
  // sees it: cold ids live in the staged set, not the sample cache, so the
  // hot working set and the staged set never compete for the same budget.
  if (staging_ && staging_->is_cold(id)) {
    return get_cold_bytes(id, entry);
  }
  if (cache_.enabled()) {
    // Cache stage first: a hit never takes a lock epoch, consumes no retry
    // budget, and touches no target's breaker (see DESIGN.md invariant).
    if (const ByteBuffer* hit = cache_.lookup(id)) {
      ++metrics_.cache_hits;
      metrics_.cache_hit_bytes += entry.length;
      cache_.charge_hit(entry.length);
      tracing::Span span(ctx_.tracer(), ctx_.clock(), tracing::Category::Cache,
                         "cache_hit");
      span.args().sample_id = static_cast<std::int64_t>(id);
      span.args().bytes = static_cast<std::int64_t>(entry.length);
      charge_cache_hit();
      return *hit;
    }
    ++metrics_.cache_misses;
    cache_.charge_misses(1);
    if (tracing::EventTracer* tr = ctx_.tracer()) {
      tracing::EventArgs args;
      args.sample_id = static_cast<std::int64_t>(id);
      tr->instant(tracing::Category::Cache, "cache_miss", ctx_.clock().now(),
                  args);
    }
  }
  ByteBuffer out(entry.length);
  fetch_into(id, MutableByteSpan(out), /*locked=*/false);
  admit(id, ByteSpan(out));
  return out;
}

void FetchEngine::fetch_into(std::uint64_t id, MutableByteSpan dst,
                             bool locked, bool lock_amortized) {
  const auto& entry = ctx_.registry().lookup(id);
  const int owner = static_cast<int>(entry.owner);
  DDS_CHECK(dst.size() == entry.length);
  auto& comm = *ctx_.comm;

  if (ctx_.config->comm_mode == CommMode::TwoSided &&
      owner != ctx_.group->rank()) {
    // Message-broker alternative: request/response through the owner's
    // broker.  The data plane still reads the owner's exposed region (the
    // broker would serve from the same chunk); timing goes through the
    // two-sided model including the broker service delay.
    const auto* region = static_cast<const std::byte*>(
        ctx_.window->region_data(ctx_.primary_target(owner)));
    std::memcpy(dst.data(), region + entry.offset, dst.size());
    // Verified like every other path; the broker has no retry route, so a
    // mismatch is fatal.
    if (!resilience_.payload_intact(entry, ByteSpan(dst))) {
      throw DataError("two-sided fetch of sample " + std::to_string(id) +
                      ": checksum mismatch");
    }
    auto& rt = comm.runtime();
    const double poll =
        comm.rng().exponential(1.0 / ctx_.config->broker_poll_mean_s);
    const double done = rt.network().two_sided_fetch_time(
        comm.world_rank(), ctx_.group->world_rank_of(owner),
        ctx_.nominal_sample_bytes, comm.clock().now(), poll);
    comm.clock().advance_to(done);
  } else {
    // One-sided RMA (the paper's design): lock, get, unlock, hardened with
    // retry/failover/checksum verification.  When the caller holds a
    // batch-wide lock epoch, the lock share of the software overhead is
    // amortized away.
    const double overhead_scale =
        lock_amortized ? 1.0 - comm.runtime().machine().net.rma_lock_fraction
                       : 1.0;
    resilience_.fetch(id, entry, dst, locked, overhead_scale);
  }

  account_get(owner, entry.length);
}

graph::GraphSample FetchEngine::get(std::uint64_t id) {
  account_sched(std::span<const std::uint64_t>(&id, 1));
  auto& clock = ctx_.clock();
  const double t0 = clock.now();
  const ByteBuffer bytes = get_bytes(id);
  decode_.charge(clock, ctx_.nominal_sample_bytes);
  auto sample = graph::GraphSample::deserialize(bytes);
  record_latency(clock.now() - t0);
  return sample;
}

std::vector<graph::GraphSample> FetchEngine::get_batch(
    std::span<const std::uint64_t> ids) {
  if (ids.empty()) return {};
  account_sched(ids);
  // The planner paths assume one-sided access to the owners' exposed
  // regions; a two-sided broker serves requests individually, so batched
  // modes degenerate to the per-sample loop there.
  if (ctx_.config->comm_mode == CommMode::TwoSided) {
    return get_batch_per_sample(ids);
  }
  // A tenant scope may override the store-wide batch-fetch mode (e.g. one
  // PerSample tenant beside Coalesced ones over the same engine).
  const BatchFetchMode mode =
      (ctx_.tenant != nullptr && ctx_.tenant->batch_fetch.has_value())
          ? *ctx_.tenant->batch_fetch
          : ctx_.config->batch_fetch;
  switch (mode) {
    case BatchFetchMode::PerSample:
      return get_batch_per_sample(ids);
    case BatchFetchMode::LockPerTarget:
      return get_batch_planned(ids, /*coalesce=*/false);
    case BatchFetchMode::Coalesced:
      return get_batch_planned(ids, /*coalesce=*/true);
  }
  throw InternalError("unknown BatchFetchMode");
}

std::vector<graph::GraphSample> FetchEngine::get_batch_per_sample(
    std::span<const std::uint64_t> ids) {
  std::vector<graph::GraphSample> out(ids.size());
  auto& clock = ctx_.clock();
  // Fetch each distinct id once (first occurrence pays the wire — or the
  // cache), decode per occurrence; fetch order is request order of first
  // occurrences.
  std::unordered_map<std::uint64_t, ByteBuffer> fetched;
  fetched.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t id = ids[i];
    const double t0 = clock.now();
    auto it = fetched.find(id);
    if (it == fetched.end()) {
      it = fetched.emplace(id, get_bytes(id)).first;
    } else {
      ++metrics_.batch_dup_hits;
    }
    decode_.charge(clock, ctx_.nominal_sample_bytes);
    out[i] = graph::GraphSample::deserialize(it->second);
    record_latency(clock.now() - t0);
  }
  return out;
}

ByteBuffer FetchEngine::get_cold_bytes(std::uint64_t id,
                                       const DataRegistry::Entry& entry) {
  TierMetrics& tm = *ctx_.tier;
  if (const ByteBuffer* hit = staging_->staged_lookup(id)) {
    ++tm.staged_hits;
    tm.staged_hit_bytes += entry.length;
    tracing::Span span(ctx_.tracer(), ctx_.clock(), tracing::Category::Cache,
                       "staged_hit");
    span.args().sample_id = static_cast<std::int64_t>(id);
    span.args().bytes = static_cast<std::int64_t>(entry.length);
    charge_cache_hit();
    return *hit;
  }
  // Synchronous miss: enqueue and immediately drain.  The queue still
  // serializes the issue time against the previous staging_depth reads, so
  // single-sample callers see the same device backpressure batches do.
  staging_->enqueue(id, entry);
  staging_->begin_promotion();
  ByteBuffer bytes = staging_->drain(id);
  staging_->end_promotion();
  return bytes;
}

void FetchEngine::serve_staged_hit(const PlannedSample& sample,
                                   std::vector<graph::GraphSample>& out) {
  const ByteBuffer* bytes = staging_->staged_lookup(sample.id);
  DDS_CHECK(bytes != nullptr);
  TierMetrics& tm = *ctx_.tier;
  ++tm.staged_hits;
  tm.staged_hit_bytes += sample.length;
  auto& clock = ctx_.clock();
  const double t0 = clock.now();
  {
    tracing::Span span(ctx_.tracer(), clock, tracing::Category::Cache,
                       "staged_hit");
    span.args().sample_id = static_cast<std::int64_t>(sample.id);
    span.args().bytes = static_cast<std::int64_t>(sample.length);
    charge_cache_hit();
  }
  decode_occurrences(sample, ByteSpan(*bytes), clock.now() - t0, out);
}

void FetchEngine::serve_cache_hit(const PlannedSample& sample,
                                  std::vector<graph::GraphSample>& out) {
  const ByteBuffer* bytes = cache_.lookup(sample.id);
  DDS_CHECK(bytes != nullptr);
  ++metrics_.cache_hits;
  metrics_.cache_hit_bytes += sample.length;
  cache_.charge_hit(sample.length);
  auto& clock = ctx_.clock();
  const double t0 = clock.now();
  {
    tracing::Span span(ctx_.tracer(), clock, tracing::Category::Cache,
                       "cache_hit");
    span.args().sample_id = static_cast<std::int64_t>(sample.id);
    span.args().bytes = static_cast<std::int64_t>(sample.length);
    charge_cache_hit();
  }
  decode_occurrences(sample, ByteSpan(*bytes), clock.now() - t0, out);
}

std::vector<graph::GraphSample> FetchEngine::get_batch_planned(
    std::span<const std::uint64_t> ids, bool coalesce) {
  tracing::Span batch_span(ctx_.tracer(), ctx_.clock(),
                           tracing::Category::Fetch,
                           coalesce ? "batch_coalesced" : "batch_per_target");
  // Plan stage, with the Cache stage (and, when tiered, the hot/cold
  // partition) as its residency predicate: ids already resident — or cold,
  // hence owned by the Staging stage — never enter a transfer plan.
  // `contains`/`is_cold` do not promote — the authoritative lookups in
  // serve_cache_hit / serve_staged_hit do.
  const bool tiered = staging_.has_value();
  std::vector<PlannedSample> diverted;
  std::optional<tracing::Span> plan_span;
  plan_span.emplace(ctx_.tracer(), ctx_.clock(), tracing::Category::Fetch,
                    "plan");
  const FetchPlan plan =
      (cache_.enabled() || tiered)
          ? plan_batch_fetch(
                ctx_.registry(), ids,
                [this, tiered](std::uint64_t id) {
                  return cache_.contains(id) ||
                         (tiered && staging_->is_cold(id));
                },
                &diverted)
          : plan_batch_fetch(ctx_.registry(), ids);
  plan_span->args().bytes = static_cast<std::int64_t>(plan.total_bytes());
  plan_span.reset();
  std::vector<graph::GraphSample> out(ids.size());
  auto& clock = ctx_.clock();
  metrics_.batch_dup_hits += plan.duplicate_hits;
  metrics_.lock_epochs_saved +=
      plan.unique_samples - static_cast<std::uint64_t>(plan.targets.size());
  if (cache_.enabled()) {
    metrics_.cache_misses += plan.unique_samples;
    cache_.charge_misses(plan.unique_samples);
  }

  // Partition the diverted samples.  Cache first: after an elastic reshard
  // narrows the hot prefix, a previously-hot sample can be both cached and
  // cold — the cheaper cache hit wins until eviction retires it.
  std::vector<PlannedSample> cached;
  std::vector<PlannedSample> staged;
  std::vector<PlannedSample> cold_misses;
  for (PlannedSample& s : diverted) {
    if (cache_.contains(s.id)) {
      cached.push_back(std::move(s));
    } else if (staging_->staged_contains(s.id)) {
      staged.push_back(std::move(s));
    } else {
      cold_misses.push_back(std::move(s));
    }
  }

  // Staging stage, issue side: enqueue every cold miss *now*, before any
  // lock epoch opens — the modeled storage reads then overlap the hot RMA
  // transfers below (the queue never advances the clock at enqueue).
  for (const PlannedSample& s : cold_misses) {
    staging_->enqueue(s.id, ctx_.registry().lookup(s.id));
  }

  // Cache stage: serve every resident sample before any lock epoch opens.
  for (const PlannedSample& s : cached) serve_cache_hit(s, out);
  for (const PlannedSample& s : staged) serve_staged_hit(s, out);

  for (const TargetPlan& tp : plan.targets) {
    if (!coalesce) {
      // Ablation: one shared-lock epoch per distinct target; individual
      // gets inside it with the lock overhead amortized after the first.
      const int target = ctx_.primary_target(tp.owner);
      transport_.lock(target);
      bool first_in_epoch = true;
      for (const PlannedSample& s : tp.samples) {
        const double t0 = clock.now();
        ByteBuffer bytes(static_cast<std::size_t>(s.length));
        fetch_into(s.id, MutableByteSpan(bytes), /*locked=*/true,
                   /*lock_amortized=*/!first_in_epoch);
        first_in_epoch = false;
        admit(s.id, ByteSpan(bytes));
        decode_occurrences(s, ByteSpan(bytes), clock.now() - t0, out);
      }
      transport_.unlock(target);
      continue;
    }

    // Coalesced: stage every merged range of this target in one vectored
    // transfer, then verify and decode sample by sample.
    ByteBuffer staging(tp.bytes);
    const double t0 = clock.now();
    const bool delivered = run_coalesced_transfer(tp, MutableByteSpan(staging));
    const double fetch_share =
        (clock.now() - t0) / static_cast<double>(tp.samples.size());
    bool fell_back = false;
    for (const PlannedSample& s : tp.samples) {
      const auto& entry = ctx_.registry().lookup(s.id);
      const ByteSpan view(staging.data() + s.staging_offset, s.length);
      if (delivered && resilience_.payload_intact(entry, view)) {
        account_get(tp.owner, entry.length);
        admit(s.id, view);
        decode_occurrences(s, view, fetch_share, out);
      } else {
        // Degrade to the per-sample resilient path for this id only: the
        // transfer lost the whole target (transport) or just this sample
        // (checksum); either way retries/failover/FS-fallback still apply.
        fell_back = true;
        const double tf = clock.now();
        ByteBuffer bytes(entry.length);
        fetch_into(s.id, MutableByteSpan(bytes), /*locked=*/false);
        admit(s.id, ByteSpan(bytes));
        decode_occurrences(s, ByteSpan(bytes), clock.now() - tf, out);
      }
    }
    if (fell_back) ++metrics_.coalesced_fallbacks;
  }

  // Staging stage, drain side: collect the cold reads issued before the
  // hot transfers.  Any read that completed while the RMA traffic ran
  // drains for free; the stage_wait recorder captures what didn't hide.
  // Promotion into the staged set happens under one lock epoch per batch.
  if (!cold_misses.empty()) {
    staging_->begin_promotion();
    for (const PlannedSample& s : cold_misses) {
      const double t0 = clock.now();
      const ByteBuffer bytes = staging_->drain(s.id);
      decode_occurrences(s, ByteSpan(bytes), clock.now() - t0, out);
    }
    staging_->end_promotion();
  }
  return out;
}

bool FetchEngine::run_coalesced_transfer(const TargetPlan& tp,
                                         MutableByteSpan staging) {
  const int target = ctx_.primary_target(tp.owner);
  std::vector<simmpi::Window::GetSegment> segments;
  segments.reserve(tp.ranges.size());
  std::size_t pos = 0;
  for (const PlannedRange& r : tp.ranges) {
    segments.push_back(
        {static_cast<std::size_t>(r.offset),
         MutableByteSpan(staging.data() + pos,
                         static_cast<std::size_t>(r.length))});
    pos += static_cast<std::size_t>(r.length);
  }
  DDS_CHECK(pos == staging.size());

  transport_.lock(target);
  ++metrics_.coalesced_transfers;
  metrics_.coalesced_segments += segments.size();
  bool delivered = false;
  try {
    transport_.getv(segments, target,
                    ctx_.nominal_sample_bytes * tp.samples.size());
    metrics_.coalesced_bytes += staging.size();
    delivered = true;
  } catch (const NetworkError&) {
    // Time was charged by the transport; the caller falls back per sample.
  }
  transport_.unlock(target);
  return delivered;
}

void FetchEngine::decode_occurrences(const PlannedSample& sample,
                                     ByteSpan bytes, double fetch_share,
                                     std::vector<graph::GraphSample>& out) {
  auto& clock = ctx_.clock();
  for (const std::uint32_t pos : sample.positions) {
    const double t0 = clock.now();
    decode_.charge(clock, ctx_.nominal_sample_bytes);
    out[pos] = graph::GraphSample::deserialize(bytes);
    record_latency(fetch_share + (clock.now() - t0));
  }
}

}  // namespace dds::core::fetch
