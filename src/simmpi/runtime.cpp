#include "simmpi/runtime.hpp"

#include <algorithm>
#include <exception>
#include <tuple>

namespace dds::simmpi {

// ---- Comm ----------------------------------------------------------------

model::VirtualClock& Comm::clock() const {
  return shared_->runtime->clock_of(world_rank());
}

Rng& Comm::rng() const { return shared_->runtime->rng_of(world_rank()); }

tracing::EventTracer* Comm::tracer() const {
  return shared_->runtime->tracer_of(world_rank());
}

double Comm::clock_now() const { return clock().now(); }

void Comm::trace_collective(const char* name, double t0,
                            std::size_t bytes) const {
  tracing::EventTracer* tr = tracer();
  if (tr == nullptr) return;
  tracing::EventArgs args;
  args.bytes = static_cast<std::int64_t>(bytes);
  tr->record(tracing::Category::Simmpi, name, t0, clock_now(), args);
}

void Comm::finish(double max_start, std::size_t bytes) {
  const double done =
      shared_->runtime->network().collective_time(size(), bytes, max_start);
  clock().advance_to(done);
}

void Comm::sync_clocks(std::size_t bytes) {
  deposit(nullptr, 0);
  const double start = read_phase([](int) {});
  finish(start, bytes);
}

Comm Comm::split(int color, int key) {
  using detail::SplitEntry;
  const SplitEntry mine{color, key, rank_};
  deposit(&mine, sizeof(SplitEntry));

  // The last arriver gathers and sorts all N entries once; each rank then
  // binary-searches its color's range and its own place in it, so set-up
  // costs O(N log N) per call rather than per rank.
  const auto by_color = [](const SplitEntry& a, const SplitEntry& b) {
    return a.color < b.color;
  };
  const auto by_all = [](const SplitEntry& a, const SplitEntry& b) {
    return std::tie(a.color, a.key, a.rank) < std::tie(b.color, b.key, b.rank);
  };
  detail::CommShared& cs = *shared_;
  std::size_t first = 0;  // my group's range in cs.split_order
  std::size_t last = 0;
  std::size_t at = 0;     // my entry in cs.split_order
  const double start = read_phase(
      [&] {
        cs.split_order.resize(static_cast<std::size_t>(size()));
        for (int r = 0; r < size(); ++r) {
          std::memcpy(&cs.split_order[static_cast<std::size_t>(r)],
                      cs.slots[r], sizeof(SplitEntry));
        }
        std::sort(cs.split_order.begin(), cs.split_order.end(), by_all);
      },
      [&](int) {
        const auto begin = cs.split_order.begin();
        const auto range = std::equal_range(begin, cs.split_order.end(),
                                            mine, by_color);
        first = static_cast<std::size_t>(range.first - begin);
        last = static_cast<std::size_t>(range.second - begin);
        at = static_cast<std::size_t>(
            std::lower_bound(range.first, range.second, mine, by_all) - begin);
      });

  // The group's first entry leads: it builds the sub-communicator while
  // cs.split_order is still intact (no peer passes the next barrier).
  const int leader = cs.split_order[first].rank;
  if (rank_ == leader) {
    std::vector<int> world;
    world.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      world.push_back(shared_->world_ranks[static_cast<std::size_t>(
          cs.split_order[i].rank)]);
    }
    shared_->publish[static_cast<std::size_t>(rank_)] =
        std::make_shared<detail::CommShared>(
            shared_->runtime, std::move(world), shared_->runtime->abort_flag(),
            *shared_->runtime->fiber_scheduler());
  }
  shared_->barrier.arrive_and_wait();
  auto sub = shared_->publish[static_cast<std::size_t>(leader)];
  shared_->barrier.arrive_and_wait();
  if (rank_ == leader) shared_->publish[static_cast<std::size_t>(rank_)].reset();

  finish(start, sizeof(SplitEntry));
  return Comm(std::move(sub), static_cast<int>(at - first));
}

std::shared_ptr<void> Comm::share_ptr(
    int root, const std::function<std::shared_ptr<void>()>& make) {
  DDS_CHECK(root >= 0 && root < size());
  auto& published = shared_->any_publish[static_cast<std::size_t>(root)];
  deposit(nullptr, 0);
  if (rank_ == root) published = make();
  std::shared_ptr<void> ptr;
  const double start = read_phase([&](int) { ptr = published; });
  if (rank_ == root) published.reset();
  finish(start, sizeof(void*));
  return ptr;
}

void Comm::send_bytes(ByteSpan data, int dest, int tag) {
  DDS_CHECK(dest >= 0 && dest < size());
  Runtime& rt = *shared_->runtime;
  const int src_world = world_rank();
  const int dst_world = world_rank_of(dest);
  const double trace_t0 = clock().now();
  const double arrival = rt.network().message_time(
      src_world, dst_world, data.size(), clock().now());

  detail::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.data.assign(data.begin(), data.end());
  msg.arrival = arrival;

  rt.mailbox(dst_world).push_back(std::move(msg));
  // Sender returns once the message is injected (eager protocol).
  clock().advance(rt.machine().net.inter_latency_s);
  if (tracing::EventTracer* tr = tracer()) {
    tracing::EventArgs args;
    args.target = dst_world;
    args.bytes = static_cast<std::int64_t>(data.size());
    tr->record(tracing::Category::Simmpi, "send", trace_t0, clock().now(),
               args);
  }
}

ByteBuffer Comm::recv_bytes(int src, int tag, int* actual_src) {
  Runtime& rt = *shared_->runtime;
  auto& box = rt.mailbox(world_rank());
  const auto match = [&](const detail::Message& m) {
    return (src == kAnySource || m.src == src) && m.tag == tag;
  };
  const auto find = [&] { return std::find_if(box.begin(), box.end(), match); };
  // Hand the execution token around until a matching message lands (or
  // the job aborts).
  rt.fiber_scheduler()->yield_until(
      [&] { return rt.abort_flag().raised() || find() != box.end(); });
  const auto it = find();
  if (it == box.end()) throw AbortedError();
  detail::Message msg = std::move(*it);
  box.erase(it);
  const double trace_t0 = clock().now();
  clock().advance_to(msg.arrival);
  if (actual_src != nullptr) *actual_src = msg.src;
  if (tracing::EventTracer* tr = tracer()) {
    tracing::EventArgs args;
    args.target = world_rank_of(msg.src);
    args.bytes = static_cast<std::int64_t>(msg.data.size());
    tr->record(tracing::Category::Simmpi, "recv", trace_t0, clock().now(),
               args);
  }
  return std::move(msg.data);
}

// ---- Runtime ---------------------------------------------------------------

Runtime::Runtime(int nranks, model::MachineConfig machine, std::uint64_t seed,
                 bool /*unused*/, Engine /*unused*/)
    : nranks_(nranks),
      machine_(std::move(machine)),
      net_(machine_, nranks),
      sched_(nranks, abort_),
      clocks_(static_cast<std::size_t>(nranks)),
      mailboxes_(static_cast<std::size_t>(nranks)) {
  const Rng root(seed);
  rngs_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    rngs_.push_back(root.stream(static_cast<std::uint64_t>(r)));
  }
  std::vector<int> world(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) world[static_cast<std::size_t>(r)] = r;
  world_ = std::make_shared<detail::CommShared>(this, std::move(world),
                                                abort_, sched_);
}

void Runtime::run(const std::function<void(Comm&)>& fn) {
  std::exception_ptr first_error;

  // Rank body: absorbs every exception (nothing may unwind across a fiber
  // switch), keeps the first real error, and aborts the peers.
  const auto rank_body = [&](int r) {
    try {
      Comm comm(world_, r);
      fn(comm);
    } catch (const AbortedError&) {
      // Another rank failed first; nothing to report from this one.
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      abort_.raise();
    }
  };

  try {
    sched_.run(rank_body);
  } catch (...) {
    // Scheduler-level failure (cooperative deadlock).  Rank errors were
    // already captured by rank_body; keep whichever came first.
    if (!first_error) first_error = std::current_exception();
  }
  if (first_error) {
    // Leave the runtime reusable: future runs start from a clean flag.
    abort_.clear();
    std::rethrow_exception(first_error);
  }
}

double Runtime::max_clock() const {
  double t = 0.0;
  for (const auto& c : clocks_) t = std::max(t, c.now());
  return t;
}

void Runtime::reset_time() {
  for (auto& c : clocks_) c.reset();
  net_.reset();
}

}  // namespace dds::simmpi
