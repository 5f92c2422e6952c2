// MetricsRegistry: named counters and latency recorders with a stable
// registration order.
//
// A fetch stage registers the metrics it owns by name and holds cheap
// references to them; everything downstream (DDStore::metrics() readers,
// EpochReport deltas, bench JSON) reads the registry by name or iterates
// it generically.  It is the one place the store's counters live.
//
// Contracts the rest of the system relies on:
//  * References returned by counter()/latency() stay valid for the
//    registry's lifetime (entries live in deques; registration never moves
//    them).
//  * Iteration order is registration order.  Ranks that construct the same
//    stages in the same order therefore have identical layouts, which lets
//    the trainer sum per-rank counter snapshots elementwise.
//  * reset() zeroes every entry and keeps the layout.
//
// Not thread-safe: each simulated rank owns its own registry, exactly as
// each rank owns its own DDStore.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace dds {

/// One key=value dimension attached to a counter family, e.g.
/// {"tenant", "3"}.  A default-constructed (empty-key) label means "no
/// label": the family name is used verbatim, so call sites that thread an
/// optional label through pay nothing when it is unset.
struct MetricLabel {
  std::string key;
  std::string value;

  bool empty() const { return key.empty(); }
};

class MetricsRegistry {
 public:
  /// Monotonic event count.  Stages hold references and bump in place.
  class Counter {
   public:
    Counter& operator++() {
      ++value_;
      return *this;
    }
    Counter& operator+=(std::uint64_t delta) {
      value_ += delta;
      return *this;
    }
    std::uint64_t value() const { return value_; }

   private:
    friend class MetricsRegistry;
    std::uint64_t value_ = 0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or re-opens) the named counter.
  Counter& counter(const std::string& name) {
    const auto it = counter_index_.find(name);
    if (it != counter_index_.end()) return counters_[it->second];
    counter_index_.emplace(name, counters_.size());
    counter_names_.push_back(name);
    return counters_.emplace_back();
  }

  /// Canonical decorated name of a labeled family member:
  /// "bytes_fetched" + {tenant, 3} -> "bytes_fetched{tenant=3}".  An empty
  /// label returns the family name unchanged.
  static std::string labeled_name(const std::string& family,
                                  const MetricLabel& label) {
    if (label.empty()) return family;
    return family + "{" + label.key + "=" + label.value + "}";
  }

  /// Registers a counter in a labeled family.  With an empty label this is
  /// exactly counter(family) — zero-overhead passthrough, the decorated
  /// name is never materialized — so single-tenant call sites keep the
  /// default counter layout byte-for-byte.  Labeled members are ordinary
  /// registry entries: EpochReport deltas, elementwise cross-rank sums,
  /// and bench JSON all pick them up generically.
  Counter& counter(const std::string& family, const MetricLabel& label) {
    if (label.empty()) return counter(family);
    return counter(labeled_name(family, label));
  }

  /// All registered members of a family, in registration order, as
  /// (label, value) pairs; the unlabeled member (if any) appears with an
  /// empty label string, a labeled member as "key=value".  Used by
  /// per-tenant rollups; scans the name list, so keep it off hot paths.
  std::vector<std::pair<std::string, std::uint64_t>> family_values(
      const std::string& family) const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    const std::string prefix = family + "{";
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      const std::string& name = counter_names_[i];
      if (name == family) {
        out.emplace_back("", counters_[i].value());
      } else if (name.size() > prefix.size() + 1 &&
                 name.compare(0, prefix.size(), prefix) == 0 &&
                 name.back() == '}') {
        out.emplace_back(
            name.substr(prefix.size(), name.size() - prefix.size() - 1),
            counters_[i].value());
      }
    }
    return out;
  }

  /// Sum over every member of a family (unlabeled + all labels).
  std::uint64_t family_total(const std::string& family) const {
    std::uint64_t total = 0;
    for (const auto& [label, value] : family_values(family)) total += value;
    return total;
  }

  LatencyRecorder& latency(const std::string& name) {
    const auto it = latency_index_.find(name);
    if (it != latency_index_.end()) return latencies_[it->second];
    latency_index_.emplace(name, latencies_.size());
    return latencies_.emplace_back();
  }

  // ---- read-side (by-name reads, epoch deltas, JSON serialization) ------

  bool has_counter(const std::string& name) const {
    return counter_index_.find(name) != counter_index_.end();
  }

  /// Value of a registered counter; 0 when the name was never registered
  /// (asking about a stage that is not armed reads zero activity).
  std::uint64_t counter_value(const std::string& name) const {
    const auto it = counter_index_.find(name);
    if (it == counter_index_.end()) return 0;
    return counters_[it->second].value();
  }

  const LatencyRecorder* find_latency(const std::string& name) const {
    const auto it = latency_index_.find(name);
    return it == latency_index_.end() ? nullptr : &latencies_[it->second];
  }

  /// Counter names in registration order (the layout every snapshot uses).
  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }

  /// Counter values in registration order; position i matches
  /// counter_names()[i].  Trainers diff two snapshots to get epoch deltas.
  std::vector<std::uint64_t> counter_values() const {
    std::vector<std::uint64_t> out;
    out.reserve(counters_.size());
    for (const Counter& c : counters_) out.push_back(c.value());
    return out;
  }

  std::size_t num_counters() const { return counters_.size(); }

  /// Zeroes every counter and latency recorder; the layout (names and
  /// their order) is kept.
  void reset() {
    for (Counter& c : counters_) c.value_ = 0;
    for (LatencyRecorder& l : latencies_) l = LatencyRecorder{};
  }

 private:
  // Deques: registration must not invalidate references held by stages.
  std::deque<Counter> counters_;
  std::deque<LatencyRecorder> latencies_;
  std::vector<std::string> counter_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> latency_index_;
};

}  // namespace dds
