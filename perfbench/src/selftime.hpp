// Exclusive (self) modeled time per span, computed from the per-rank
// EventTracer streams after a traced run.
//
// Within one rank's epoch window every instant is charged to exactly one
// span: the innermost span covering it (latest start; ties go to the
// earlier end, then the earlier record).  For properly nested spans this is
// the textbook self time, duration minus the part covered by children.
// Spans that overlap without nesting (the GPU timeline's forward/backward
// against the CPU loader's next batch in the pipelined loop) split the
// overlap in favour of the later-starting span.  Instants covered by no
// span go to the rank's `unattributed` residual, so each rank's table sums
// to the window length exactly (up to rounding).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/tracing/tracer.hpp"

namespace perfbench {

struct SelfTimeTable {
  /// "<category>.<span>" -> modeled seconds, summed over the windows.
  std::map<std::string, double> self_s;
  double unattributed_s = 0;
  double window_s = 0;  ///< sum of window lengths
};

/// Adds one rank's self times over `[begin, end)` to `table`.  `events` is
/// the rank's tracer snapshot (instants are ignored).
void add_self_times(const std::vector<dds::tracing::Event>& events,
                    double begin, double end, SelfTimeTable& table);

}  // namespace perfbench
