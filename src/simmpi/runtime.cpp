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
  struct Entry {
    int color;
    int key;
    int rank;
  };
  const Entry mine{color, key, rank_};
  deposit(&mine, sizeof(Entry));

  std::vector<int> members;       // parent-comm ranks of my group, ordered
  const double start = read_phase([&](int nranks) {
    std::vector<Entry> all(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      std::memcpy(&all[static_cast<std::size_t>(r)], shared_->slots[r],
                  sizeof(Entry));
    }
    std::vector<Entry> group;
    for (const auto& e : all) {
      if (e.color == color) group.push_back(e);
    }
    std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
      return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
    });
    members.reserve(group.size());
    for (const auto& e : group) members.push_back(e.rank);
  });

  const int leader = members.front();
  if (rank_ == leader) {
    std::vector<int> world;
    world.reserve(members.size());
    for (int r : members) world.push_back(shared_->world_ranks[static_cast<std::size_t>(r)]);
    shared_->publish[static_cast<std::size_t>(rank_)] =
        std::make_shared<detail::CommShared>(
            shared_->runtime, std::move(world), shared_->runtime->abort_flag(),
            *shared_->runtime->fiber_scheduler());
  }
  shared_->barrier.arrive_and_wait();
  auto sub = shared_->publish[static_cast<std::size_t>(leader)];
  shared_->barrier.arrive_and_wait();
  if (rank_ == leader) shared_->publish[static_cast<std::size_t>(rank_)].reset();

  finish(start, sizeof(Entry));
  const auto my_pos = static_cast<int>(
      std::find(members.begin(), members.end(), rank_) - members.begin());
  return Comm(std::move(sub), my_pos);
}

std::shared_ptr<void> Comm::share_ptr(
    int root, const std::function<std::shared_ptr<void>()>& make) {
  DDS_CHECK(root >= 0 && root < size());
  auto& cs = *shared_;
  deposit(nullptr, 0);
  if (rank_ == root) {
    cs.any_publish[static_cast<std::size_t>(root)] = make();
  }
  cs.barrier.arrive_and_wait();
  double start = 0.0;
  for (double t : cs.clock_slots) start = std::max(start, t);
  auto ptr = cs.any_publish[static_cast<std::size_t>(root)];
  cs.barrier.arrive_and_wait();
  if (rank_ == root) cs.any_publish[static_cast<std::size_t>(root)].reset();
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
