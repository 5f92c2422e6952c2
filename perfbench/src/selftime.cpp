#include "selftime.hpp"

#include <algorithm>
#include <queue>
#include <set>

namespace perfbench {

namespace {

/// Innermost-first order: later start, then earlier end, then earlier
/// record (a RAII child closes, and is recorded, before its parent).
struct Innermost {
  bool operator()(const dds::tracing::Event* a,
                  const dds::tracing::Event* b) const {
    if (a->t0 != b->t0) return a->t0 > b->t0;
    if (a->t1 != b->t1) return a->t1 < b->t1;
    return a->seq < b->seq;
  }
};

}  // namespace

void add_self_times(const std::vector<dds::tracing::Event>& events,
                    double begin, double end, SelfTimeTable& table) {
  std::vector<const dds::tracing::Event*> spans;
  std::vector<double> points = {begin, end};
  for (const auto& e : events) {
    if (!(e.t1 > e.t0) || e.t1 <= begin || e.t0 >= end) continue;
    spans.push_back(&e);
    points.push_back(std::max(e.t0, begin));
    points.push_back(std::min(e.t1, end));
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::sort(spans.begin(), spans.end(),
            [](const auto* a, const auto* b) { return a->t0 < b->t0; });

  const auto ends_later = [](const auto* a, const auto* b) {
    return a->t1 > b->t1;
  };
  // Accumulate by (category, static name pointer); names are merged by
  // string at the end (one literal may live at several addresses).
  std::map<std::pair<dds::tracing::Category, const char*>, double> local;
  std::set<const dds::tracing::Event*, Innermost> active;
  std::priority_queue<const dds::tracing::Event*,
                      std::vector<const dds::tracing::Event*>,
                      decltype(ends_later)>
      by_end(ends_later);
  std::size_t next = 0;
  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    const double lo = points[k];
    const double hi = points[k + 1];
    while (next < spans.size() && std::max(spans[next]->t0, begin) <= lo) {
      active.insert(spans[next]);
      by_end.push(spans[next]);
      ++next;
    }
    while (!by_end.empty() && std::min(by_end.top()->t1, end) <= lo) {
      active.erase(by_end.top());
      by_end.pop();
    }
    if (active.empty()) {
      table.unattributed_s += hi - lo;
    } else {
      const dds::tracing::Event& e = **active.begin();
      local[{e.category, e.name}] += hi - lo;
    }
  }
  for (const auto& [key, seconds] : local) {
    table.self_s[std::string(dds::tracing::category_name(key.first)) + "." +
                 key.second] += seconds;
  }
  table.window_s += end - begin;
}

}  // namespace perfbench
