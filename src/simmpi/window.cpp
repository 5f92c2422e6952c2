#include "simmpi/window.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace dds::simmpi {

Window::Window(Comm& comm, MutableByteSpan local,
               std::shared_ptr<const void> keepalive)
    : comm_(comm) {
  auto& cs = *comm_.shared_;

  // Registration (MPI_Win_create) is collective: exchange region pointers.
  // deposit_raw, not deposit: the slots must carry the real region
  // addresses, not a snapshot copy.  The last arriver builds the shared
  // region table once and publishes it on rank 0's slot.
  comm_.deposit_raw(local.data(), local.size());
  const double start = comm_.read_phase(
      [&] {
        auto ws = std::make_shared<detail::WindowShared>(
            static_cast<std::size_t>(comm_.size()));
        for (int r = 0; r < comm_.size(); ++r) {
          const auto ri = static_cast<std::size_t>(r);
          ws->regions[ri] = MutableByteSpan(
              static_cast<std::byte*>(const_cast<void*>(cs.slots[ri])),
              cs.size_slots[ri]);
        }
        cs.any_publish[0] = std::move(ws);
      },
      [](int) {});
  shared_ = std::static_pointer_cast<detail::WindowShared>(cs.any_publish[0]);
  shared_->keepalives[static_cast<std::size_t>(comm_.rank())] =
      std::move(keepalive);
  // Every member has picked up the table before rank 0 drops the slot.
  cs.barrier.arrive_and_wait();
  if (comm_.rank() == 0) cs.any_publish[0].reset();

  comm_.finish(start, sizeof(void*));
}

Window::HeldLock Window::held(int target) const {
  if (target < 0 || target >= comm_.size()) {
    throw std::out_of_range("Window: target " + std::to_string(target) +
                            " outside the communicator");
  }
  for (const Epoch& e : held_) {
    if (e.target == target) return e.type;
  }
  return HeldLock::None;
}

void Window::lock(int target, LockType type) {
  DDS_CHECK_MSG(held(target) == HeldLock::None,
                "lock epoch already active on this target");
  detail::RegionLock& rl = shared_->locks[static_cast<std::size_t>(target)];
  // Park the rank until the region is available; the abort clause keeps a
  // rank from being parked forever behind a holder that unwound.
  FiberScheduler& sched = *comm_.runtime().fiber_scheduler();
  const AbortFlag& abort = comm_.runtime().abort_flag();
  if (type == LockType::Shared) {
    sched.yield_until([&] { return abort.raised() || !rl.writer; });
    if (rl.writer) throw AbortedError();  // woken by abort, still held
    ++rl.readers;
    held_.push_back({target, HeldLock::Shared});
  } else {
    sched.yield_until(
        [&] { return abort.raised() || (!rl.writer && rl.readers == 0); });
    if (rl.writer || rl.readers != 0) throw AbortedError();
    rl.writer = true;
    held_.push_back({target, HeldLock::Exclusive});
  }
  // Timing of lock/unlock is folded into the per-access RMA overhead in
  // NetworkModel (rma_remote_overhead_s), matching how the paper reports a
  // single per-sample fetch latency — so the trace marks epoch boundaries
  // with zero-duration instants rather than spans.
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    tr->instant(tracing::Category::Simmpi, "win_lock", comm_.clock().now(),
                args);
  }
}

void Window::unlock(int target) {
  const HeldLock type = held(target);
  detail::RegionLock& rl = shared_->locks[static_cast<std::size_t>(target)];
  switch (type) {
    case HeldLock::Shared:
      --rl.readers;  // a parked writer's predicate turns true
      break;
    case HeldLock::Exclusive:
      rl.writer = false;
      break;
    case HeldLock::None:
      throw InternalError("unlock without a matching lock");
  }
  std::erase_if(held_,
                [target](const Epoch& e) { return e.target == target; });
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    tr->instant(tracing::Category::Simmpi, "win_unlock", comm_.clock().now(),
                args);
  }
}

void Window::check_bounds(int target, std::size_t offset,
                          std::size_t len) const {
  const auto& region = shared_->regions.at(static_cast<std::size_t>(target));
  if (offset + len > region.size()) {
    throw DataError("Window access out of bounds: offset " +
                    std::to_string(offset) + " + len " + std::to_string(len) +
                    " > region " + std::to_string(region.size()) +
                    " on target " + std::to_string(target));
  }
}

void Window::get(MutableByteSpan dst, int target, std::size_t offset,
                 std::uint64_t charge_bytes, double overhead_scale) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(held(target) != HeldLock::None, "get outside a lock epoch");
  check_bounds(target, offset, dst.size());

  const auto& region = shared_->regions[t];
  std::memcpy(dst.data(), region.data() + offset, dst.size());
  auto& rt = comm_.runtime();
  const double trace_t0 = comm_.clock().now();
  const double done = rt.network().rma_get_time(
      comm_.world_rank(), comm_.world_rank_of(target),
      charge_bytes == 0 ? dst.size() : charge_bytes, comm_.clock().now(),
      overhead_scale);
  comm_.clock().advance_to(done);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    args.bytes = static_cast<std::int64_t>(dst.size());
    tr->record(tracing::Category::Simmpi, "win_get", trace_t0,
               comm_.clock().now(), args);
  }
}

double Window::get_at(MutableByteSpan dst, int target, std::size_t offset,
                      double start, std::uint64_t charge_bytes,
                      double overhead_scale) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(held(target) != HeldLock::None, "get outside a lock epoch");
  check_bounds(target, offset, dst.size());

  const auto& region = shared_->regions[t];
  std::memcpy(dst.data(), region.data() + offset, dst.size());
  auto& rt = comm_.runtime();
  const double done = rt.network().rma_get_time(
      comm_.world_rank(), comm_.world_rank_of(target),
      charge_bytes == 0 ? dst.size() : charge_bytes, start, overhead_scale);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    args.bytes = static_cast<std::int64_t>(dst.size());
    tr->record(tracing::Category::Simmpi, "win_get", start, done, args);
  }
  return done;
}

void Window::getv(std::span<const GetSegment> segments, int target,
                  std::uint64_t charge_bytes, double overhead_scale) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(held(target) != HeldLock::None, "getv outside a lock epoch");
  DDS_CHECK_MSG(!segments.empty(), "getv with no segments");
  std::uint64_t total = 0;
  for (const auto& seg : segments) {
    check_bounds(target, seg.offset, seg.dst.size());
    total += seg.dst.size();
  }

  const auto& region = shared_->regions[t];
  for (const auto& seg : segments) {
    std::memcpy(seg.dst.data(), region.data() + seg.offset, seg.dst.size());
  }
  auto& rt = comm_.runtime();
  const double trace_t0 = comm_.clock().now();
  const double done = rt.network().rma_getv_time(
      comm_.world_rank(), comm_.world_rank_of(target),
      charge_bytes == 0 ? total : charge_bytes, segments.size(),
      comm_.clock().now(), overhead_scale);
  comm_.clock().advance_to(done);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    args.bytes = static_cast<std::int64_t>(total);
    tr->record(tracing::Category::Simmpi, "win_getv", trace_t0,
               comm_.clock().now(), args);
  }
}

void Window::put(ByteSpan src, int target, std::size_t offset) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(held(target) == HeldLock::Exclusive,
                "put requires an exclusive lock epoch");
  check_bounds(target, offset, src.size());
  auto& region = shared_->regions[t];
  std::memcpy(region.data() + offset, src.data(), src.size());

  auto& rt = comm_.runtime();
  const double trace_t0 = comm_.clock().now();
  const double done = rt.network().rma_get_time(
      comm_.world_rank(), comm_.world_rank_of(target), src.size(),
      comm_.clock().now());
  comm_.clock().advance_to(done);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    args.bytes = static_cast<std::int64_t>(src.size());
    tr->record(tracing::Category::Simmpi, "win_put", trace_t0,
               comm_.clock().now(), args);
  }
}

void Window::accumulate_add(std::span<const double> src, int target,
                            std::size_t offset) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(held(target) == HeldLock::Exclusive,
                "accumulate requires an exclusive lock epoch");
  const std::size_t bytes = src.size() * sizeof(double);
  check_bounds(target, offset, bytes);
  auto& region = shared_->regions[t];
  DDS_CHECK_MSG(offset % sizeof(double) == 0, "misaligned accumulate");
  auto* dst = reinterpret_cast<double*>(region.data() + offset);
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] += src[i];

  auto& rt = comm_.runtime();
  const double trace_t0 = comm_.clock().now();
  const double done = rt.network().rma_get_time(
      comm_.world_rank(), comm_.world_rank_of(target), bytes,
      comm_.clock().now());
  comm_.clock().advance_to(done);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    args.bytes = static_cast<std::int64_t>(bytes);
    tr->record(tracing::Category::Simmpi, "win_accumulate", trace_t0,
               comm_.clock().now(), args);
  }
}

void Window::fence() {
  DDS_CHECK_MSG(held_.empty(), "fence with an open lock epoch");
  const double trace_t0 = comm_.clock().now();
  comm_.sync_clocks(0);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tr->record(tracing::Category::Simmpi, "win_fence", trace_t0,
               comm_.clock().now());
  }
}

void Window::free() {
  comm_.barrier();
  shared_.reset();
}

}  // namespace dds::simmpi
