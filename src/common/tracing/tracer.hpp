// EventTracer: per-rank bounded ring buffer of trace events, with RAII
// Span guards.
//
// Design constraints (DESIGN.md "Tracing"):
//  * Near-zero cost when disabled.  Instrumented code holds an
//    `EventTracer*` that is null when tracing is off; every hook is a
//    single branch on that pointer.  Span guards with a null tracer do
//    not even read the clock.
//  * No allocation on the hot path.  The ring is sized once at enable
//    time; event names are static strings stored by pointer; args are a
//    fixed struct.
//  * Bounded memory.  When the ring is full the OLDEST event is dropped
//    and a drop counter bumps — a long run keeps its most recent window
//    plus an honest count of what fell off, instead of growing without
//    bound or silently losing the tail being debugged.
//  * Single-writer.  Each simulated rank owns its tracer (like its
//    MetricsRegistry and its VirtualClock); no locking on record.  The
//    stream is keyed by RANK identity, not execution identity: every rank
//    is a fiber on one OS thread, exactly one rank body writes a given
//    tracer, and export happens after Runtime::run returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/tracing/event.hpp"
#include "model/clock.hpp"

namespace dds::tracing {

class EventTracer {
 public:
  /// `rank` labels the stream (the exporter's Chrome `tid`); `capacity` is
  /// the maximum number of retained events.
  EventTracer(int rank, std::size_t capacity)
      : rank_(rank), capacity_(capacity) {
    DDS_CHECK_MSG(capacity > 0, "EventTracer needs a non-zero capacity");
    ring_.reserve(capacity);
  }

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  int rank() const { return rank_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  /// Events discarded because the ring was full (oldest-first).
  std::uint64_t dropped() const { return dropped_; }

  /// Records a completed span [t0, t1].  `name` must have static storage.
  void record(Category category, const char* name, double t0, double t1,
              EventArgs args = {}) {
    Event e;
    e.t0 = t0;
    e.t1 = t1;
    e.category = category;
    e.name = name;
    e.args = args;
    e.seq = next_seq_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
      return;
    }
    // Full: overwrite the oldest slot (head_) and advance it.
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  /// Records a zero-duration instant event at `t`.
  void instant(Category category, const char* name, double t,
               EventArgs args = {}) {
    record(category, name, t, t, args);
  }

  /// Retained events, oldest first.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
    next_seq_ = 0;
  }

 private:
  const int rank_;
  const std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< index of the oldest event once the ring is full
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// RAII span guard: reads the clock at construction and records the span
/// at destruction.  With a null tracer the guard is inert (no clock read,
/// no record) — the disabled-mode cost is the two pointer stores below.
///
///   tracing::Span span(comm.tracer(), comm.clock(),
///                      tracing::Category::Transport, "rma_get");
///   span.args().bytes = static_cast<std::int64_t>(n);
class Span {
 public:
  Span(EventTracer* tracer, const model::VirtualClock& clock,
       Category category, const char* name, EventArgs args = {})
      : tracer_(tracer),
        clock_(&clock),
        category_(category),
        name_(name),
        args_(args),
        t0_(tracer != nullptr ? clock.now() : 0.0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(category_, name_, t0_, clock_->now(), args_);
    }
  }

  /// Args are mutable while the span is open (sizes often become known
  /// mid-operation).
  EventArgs& args() { return args_; }

 private:
  EventTracer* tracer_;
  const model::VirtualClock* clock_;
  Category category_;
  const char* name_;
  EventArgs args_;
  double t0_;
};

}  // namespace dds::tracing
