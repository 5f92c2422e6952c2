// simmpi: an in-process, MPI-like runtime with virtual time.
//
// Ranks are lightweight execution contexts inside one process;
// communicators, collectives, and one-sided windows behave like their MPI
// counterparts and move real bytes between rank-owned buffers, while a
// NetworkModel charges simulated seconds to each rank's VirtualClock.  This
// is the substitution for the real MPI + Summit/Perlmutter interconnects
// the paper ran on (DESIGN.md): control flow and data movement are real,
// elapsed time is modelled.
//
// Every rank is a stackful fiber on the thread that calls Runtime::run,
// scheduled run-to-next-blocking-op in cyclic rank order (simmpi/fiber.hpp):
// runs are deterministic and scale to thousands of simulated ranks.
//
// Usage:
//   Runtime rt(8, model::perlmutter());
//   rt.run([&](Comm& world) {
//     auto group = world.split(world.rank() / 4, world.rank());
//     double s = world.allreduce(1.0, Op::Sum);   // == 8.0 on every rank
//   });
#pragma once

#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tracing/tracer.hpp"
#include "faults/injector.hpp"
#include "model/clock.hpp"
#include "model/machine.hpp"
#include "model/network.hpp"
#include "simmpi/barrier.hpp"

namespace dds::simmpi {

class Runtime;
class Comm;

/// The execution engine.  Fibers are the only one; the enum survives only
/// so the benchmark harness, which names it, compiles.
enum class Engine { Fibers };

/// Reduction operators for allreduce/reduce.
enum class Op { Sum, Min, Max, Prod };

namespace detail {

template <typename T>
T apply_op(Op op, T a, T b) {
  switch (op) {
    case Op::Sum:
      return a + b;
    case Op::Min:
      return b < a ? b : a;
    case Op::Max:
      return a < b ? b : a;
    case Op::Prod:
      return a * b;
  }
  throw InternalError("unknown Op");
}

/// A point-to-point message in flight.
struct Message {
  int src = -1;
  int tag = 0;
  ByteBuffer data;
  double arrival = 0.0;  ///< simulated time the payload lands at the receiver
};

/// Per-rank incoming message queue (two-sided communication).
using Mailbox = std::deque<Message>;

/// State shared by all member ranks of one communicator.
struct CommShared {
  CommShared(Runtime* rt, std::vector<int> world, AbortFlag& abort,
             FiberScheduler& sched)
      : runtime(rt),
        world_ranks(std::move(world)),
        barrier(static_cast<int>(world_ranks.size()), abort, sched),
        slots(world_ranks.size(), nullptr),
        slot_storage(world_ranks.size()),
        size_slots(world_ranks.size(), 0),
        clock_slots(world_ranks.size(), 0.0),
        publish(world_ranks.size()),
        any_publish(world_ranks.size()) {}

  int size() const { return static_cast<int>(world_ranks.size()); }

  Runtime* runtime;
  std::vector<int> world_ranks;  ///< subrank -> world rank
  Barrier barrier;
  std::vector<const void*> slots;
  std::vector<ByteBuffer> slot_storage;  ///< backing bytes for `slots`
  std::vector<std::size_t> size_slots;
  std::vector<double> clock_slots;
  std::vector<std::shared_ptr<CommShared>> publish;  ///< for split()
  std::vector<std::shared_ptr<void>> any_publish;    ///< for Window::create
};

}  // namespace detail

/// Per-rank handle on a communicator (cheap to copy, like an MPI_Comm).
class Comm {
 public:
  Comm() = default;

  int rank() const { return rank_; }
  int size() const { return shared_->size(); }
  /// This rank's identity in the world communicator (for NIC placement).
  int world_rank() const { return shared_->world_ranks[rank_]; }
  int world_rank_of(int r) const { return shared_->world_ranks.at(r); }

  Runtime& runtime() const { return *shared_->runtime; }
  model::VirtualClock& clock() const;
  Rng& rng() const;
  /// This rank's event tracer, or nullptr when tracing is disabled.
  tracing::EventTracer* tracer() const;

  // ---- collectives ----------------------------------------------------

  /// Barrier: synchronizes ranks and reconciles virtual clocks to the max.
  void barrier() {
    const double t0 = clock_now();
    sync_clocks(0);
    trace_collective("barrier", t0, 0);
  }

  /// Splits into sub-communicators by color; ranks ordered by (key, rank).
  Comm split(int color, int key);

  Comm dup() { return split(0, rank_); }

  template <typename T>
    requires TriviallySerializable<T>
  void bcast(T* data, std::size_t count, int root) {
    const double t0 = clock_now();
    deposit(data, count * sizeof(T));
    const double done = read_phase([&](int) {
      if (rank_ != root) {
        std::memcpy(data, shared_->slots[root], count * sizeof(T));
      }
    });
    finish(done, count * sizeof(T));
    trace_collective("bcast", t0, count * sizeof(T));
  }

  template <typename T>
  void bcast(std::vector<T>& v, int root) {
    auto n = static_cast<std::uint64_t>(v.size());
    bcast(&n, 1, root);
    if (rank_ != root) v.resize(n);
    if (n > 0) bcast(v.data(), v.size(), root);
  }

  template <typename T>
  T allreduce(T value, Op op) {
    T result = value;
    allreduce_inplace(std::span<T>(&result, 1), op);
    return result;
  }

  template <typename T>
    requires TriviallySerializable<T>
  void allreduce_inplace(std::span<T> data, Op op) {
    const double t0 = clock_now();
    // deposit() snapshots the *input*, so folding into `data` in place is
    // safe while peers read the published snapshot.
    deposit(data.data(), data.size() * sizeof(T));
    const double done = read_phase([&](int nranks) {
      for (int r = 0; r < nranks; ++r) {
        if (r == rank_) continue;
        const T* theirs = static_cast<const T*>(shared_->slots[r]);
        for (std::size_t i = 0; i < data.size(); ++i) {
          data[i] = detail::apply_op(op, data[i], theirs[i]);
        }
      }
    });
    finish(done, data.size() * sizeof(T));
    trace_collective("allreduce", t0, data.size() * sizeof(T));
  }

  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> allgather(const T& value) {
    const double t0 = clock_now();
    deposit(&value, sizeof(T));
    std::vector<T> out(static_cast<std::size_t>(size()));
    const double done = read_phase([&](int nranks) {
      for (int r = 0; r < nranks; ++r) {
        std::memcpy(&out[static_cast<std::size_t>(r)], shared_->slots[r],
                    sizeof(T));
      }
    });
    finish(done, sizeof(T));
    trace_collective("allgather", t0, sizeof(T));
    return out;
  }

  /// Variable-count allgather; fills `counts` (per-rank element counts)
  /// when non-null and returns the concatenation in rank order.
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::vector<std::size_t>* counts = nullptr) {
    const double t0 = clock_now();
    deposit(mine.data(), mine.size() * sizeof(T));
    std::vector<T> out;
    std::size_t max_bytes = 0;
    const double done = read_phase([&](int nranks) {
      std::size_t total = 0;
      for (int r = 0; r < nranks; ++r) {
        total += shared_->size_slots[static_cast<std::size_t>(r)] / sizeof(T);
        max_bytes =
            std::max(max_bytes, shared_->size_slots[static_cast<std::size_t>(r)]);
      }
      out.reserve(total);
      if (counts != nullptr) counts->assign(static_cast<std::size_t>(nranks), 0);
      for (int r = 0; r < nranks; ++r) {
        const auto bytes = shared_->size_slots[static_cast<std::size_t>(r)];
        const auto n = bytes / sizeof(T);
        const T* p = static_cast<const T*>(shared_->slots[r]);
        out.insert(out.end(), p, p + n);
        if (counts != nullptr) (*counts)[static_cast<std::size_t>(r)] = n;
      }
    });
    finish(done, max_bytes);
    trace_collective("allgatherv", t0, max_bytes);
    return out;
  }

  /// All-to-all with per-destination buffers: send[i] goes to rank i;
  /// returns the concatenation of everyone's segment addressed to us.
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> alltoallv(const std::vector<std::vector<T>>& send,
                           std::vector<std::size_t>* counts = nullptr) {
    DDS_CHECK(static_cast<int>(send.size()) == size());
    const double t0 = clock_now();
    // Flatten into one length-prefixed buffer so deposit() snapshots the
    // whole payload: a pointer to the caller's nested vectors would dangle
    // if the caller unwinds on abort while a peer is still reading.
    ByteBuffer flat;
    BinaryWriter writer(flat);
    for (const auto& s : send) writer.write_vector(s);
    deposit(flat.data(), flat.size());
    std::vector<T> out;
    std::size_t my_bytes_out = 0;
    for (const auto& s : send) my_bytes_out += s.size() * sizeof(T);
    const double done = read_phase([&](int nranks) {
      if (counts != nullptr) counts->assign(static_cast<std::size_t>(nranks), 0);
      for (int r = 0; r < nranks; ++r) {
        const auto sr = static_cast<std::size_t>(r);
        BinaryReader reader(
            ByteSpan(static_cast<const std::byte*>(shared_->slots[sr]),
                     shared_->size_slots[sr]));
        // Segment `dest` of rank r's buffer is addressed to rank `dest`.
        for (int dest = 0; dest < nranks; ++dest) {
          if (dest == rank_) {
            const std::vector<T> seg = reader.read_vector<T>();
            out.insert(out.end(), seg.begin(), seg.end());
            if (counts != nullptr) (*counts)[sr] = seg.size();
          } else {
            const auto n = reader.read<std::uint64_t>();
            reader.skip(static_cast<std::size_t>(n) * sizeof(T));
          }
        }
      }
    });
    finish(done, my_bytes_out);
    trace_collective("alltoallv", t0, my_bytes_out);
    return out;
  }

  /// allgather that does NOT advance virtual clocks — for simulation
  /// harnesses that need to exchange bookkeeping (e.g. per-rank GPU
  /// completion times) without perturbing the time model.
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> allgather_untimed(const T& value) {
    deposit(&value, sizeof(T));
    std::vector<T> out(static_cast<std::size_t>(size()));
    read_phase([&](int nranks) {
      for (int r = 0; r < nranks; ++r) {
        std::memcpy(&out[static_cast<std::size_t>(r)], shared_->slots[r],
                    sizeof(T));
      }
    });
    return out;
  }

  /// Variable-count allgather that does NOT advance virtual clocks — the
  /// vector analogue of allgather_untimed, for exchanging per-rank metric
  /// snapshots and other bookkeeping without perturbing the time model.
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> allgatherv_untimed(std::span<const T> mine) {
    deposit(mine.data(), mine.size() * sizeof(T));
    std::vector<T> out;
    read_phase([&](int nranks) {
      std::size_t total = 0;
      for (int r = 0; r < nranks; ++r) {
        total += shared_->size_slots[static_cast<std::size_t>(r)] / sizeof(T);
      }
      out.reserve(total);
      for (int r = 0; r < nranks; ++r) {
        const auto n =
            shared_->size_slots[static_cast<std::size_t>(r)] / sizeof(T);
        const T* p = static_cast<const T*>(shared_->slots[r]);
        out.insert(out.end(), p, p + n);
      }
    });
    return out;
  }

  /// Variable-count gather to `root` only: root receives the concatenation
  /// (with per-rank counts); other ranks receive an empty vector.
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> gatherv(std::span<const T> mine, int root,
                         std::vector<std::size_t>* counts = nullptr) {
    const double t0 = clock_now();
    deposit(mine.data(), mine.size() * sizeof(T));
    std::vector<T> out;
    const double done = read_phase([&](int nranks) {
      if (rank_ != root) return;
      std::size_t total = 0;
      for (int r = 0; r < nranks; ++r) {
        total += shared_->size_slots[static_cast<std::size_t>(r)] / sizeof(T);
      }
      out.reserve(total);
      if (counts != nullptr) counts->assign(static_cast<std::size_t>(nranks), 0);
      for (int r = 0; r < nranks; ++r) {
        const auto n = shared_->size_slots[static_cast<std::size_t>(r)] / sizeof(T);
        const T* p = static_cast<const T*>(shared_->slots[r]);
        out.insert(out.end(), p, p + n);
        if (counts != nullptr) (*counts)[static_cast<std::size_t>(r)] = n;
      }
    });
    finish(done, mine.size() * sizeof(T));
    trace_collective("gatherv", t0, mine.size() * sizeof(T));
    return out;
  }

  /// Collective object sharing: `root` runs `make()` once; every rank
  /// returns the same shared_ptr.  Used to share large immutable state
  /// (chunk registries, epoch permutations) across ranks — in a real
  /// MPI job each rank would hold its own copy; sharing one in-process copy
  /// is a memory optimization that does not change behaviour because the
  /// shared objects are immutable.
  std::shared_ptr<void> share_ptr(
      int root, const std::function<std::shared_ptr<void>()>& make);

  template <typename T, typename F>
  std::shared_ptr<T> share(int root, F&& make) {
    return std::static_pointer_cast<T>(share_ptr(
        root, [&make]() -> std::shared_ptr<void> { return make(); }));
  }

  // ---- two-sided point-to-point ---------------------------------------

  static constexpr int kAnySource = -1;

  void send_bytes(ByteSpan data, int dest, int tag);
  /// Blocks until a matching message arrives; src may be kAnySource.
  ByteBuffer recv_bytes(int src, int tag, int* actual_src = nullptr);

  template <typename T>
    requires TriviallySerializable<T>
  void send(std::span<const T> data, int dest, int tag) {
    send_bytes(ByteSpan(reinterpret_cast<const std::byte*>(data.data()),
                        data.size() * sizeof(T)),
               dest, tag);
  }

  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> recv(int src, int tag, int* actual_src = nullptr) {
    ByteBuffer buf = recv_bytes(src, tag, actual_src);
    DDS_CHECK(buf.size() % sizeof(T) == 0);
    std::vector<T> out(buf.size() / sizeof(T));
    std::memcpy(out.data(), buf.data(), buf.size());
    return out;
  }

 private:
  friend class Runtime;
  friend class Window;

  Comm(std::shared_ptr<detail::CommShared> shared, int rank)
      : shared_(std::move(shared)), rank_(rank) {}

  /// Publishes this rank's contribution by *copying* it into storage owned
  /// by the CommShared.  Peers read `slots` between the two barriers of
  /// read_phase(); on abort a rank can unwind out of the second barrier —
  /// destroying its stack frame — while a slower peer is still reading, so
  /// a slot must never point at rank-local memory.
  void deposit(const void* ptr, std::size_t bytes) {
    auto& storage = shared_->slot_storage[static_cast<std::size_t>(rank_)];
    // Keep data() non-null even for empty payloads: readers form
    // (pointer, pointer + 0) ranges from the slot.
    storage.reserve(bytes > 0 ? bytes : 1);
    storage.resize(bytes);
    if (bytes != 0) std::memcpy(storage.data(), ptr, bytes);
    shared_->slots[static_cast<std::size_t>(rank_)] = storage.data();
    shared_->size_slots[static_cast<std::size_t>(rank_)] = bytes;
    shared_->clock_slots[static_cast<std::size_t>(rank_)] = clock_now();
  }

  /// Publishes a raw pointer WITHOUT copying — only for Window
  /// registration, where `slots` must carry the actual region addresses
  /// (RMA targets the region itself, not a snapshot) and region lifetime
  /// is the window's contract (see Window's keepalive parameter).
  void deposit_raw(const void* ptr, std::size_t bytes) {
    shared_->slots[static_cast<std::size_t>(rank_)] = ptr;
    shared_->size_slots[static_cast<std::size_t>(rank_)] = bytes;
    shared_->clock_slots[static_cast<std::size_t>(rank_)] = clock_now();
  }

  /// Runs `fn` between the two barriers of an exchange; returns the max
  /// deposit-time across ranks (the collective's start time).
  template <typename F>
  double read_phase(F&& fn) {
    shared_->barrier.arrive_and_wait();
    double start = 0.0;
    for (double t : shared_->clock_slots) start = std::max(start, t);
    fn(size());
    shared_->barrier.arrive_and_wait();
    return start;
  }

  void finish(double max_start, std::size_t bytes);
  void sync_clocks(std::size_t bytes);
  double clock_now() const;
  /// Records a Simmpi-category span from `t0` to now (no-op when tracing
  /// is off).  The untimed collectives deliberately do not call this: they
  /// move bookkeeping, not modeled traffic.
  void trace_collective(const char* name, double t0, std::size_t bytes) const;

  std::shared_ptr<detail::CommShared> shared_;
  int rank_ = 0;
};

/// Owns the rank execution contexts, clocks, RNG streams, and the network
/// model.
class Runtime {
 public:
  /// The two trailing parameters are unused; they exist only so the
  /// benchmark harness, which still passes them, compiles.
  Runtime(int nranks, model::MachineConfig machine, std::uint64_t seed = 42,
          bool /*unused*/ = true, Engine /*unused*/ = Engine::Fibers);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `fn(world_comm)` on every rank, as fibers driven by the calling
  /// thread.  The first exception thrown by any rank is rethrown here;
  /// other ranks are released from collectives via the abort flag.
  void run(const std::function<void(Comm&)>& fn);

  int nranks() const { return nranks_; }
  const model::MachineConfig& machine() const { return machine_; }
  model::NetworkModel& network() { return net_; }

  model::VirtualClock& clock_of(int world_rank) {
    return clocks_[static_cast<std::size_t>(world_rank)];
  }
  Rng& rng_of(int world_rank) {
    return rngs_[static_cast<std::size_t>(world_rank)];
  }
  detail::Mailbox& mailbox(int world_rank) {
    return mailboxes_[static_cast<std::size_t>(world_rank)];
  }
  AbortFlag& abort_flag() { return abort_; }

  /// The rank scheduler (never null; a pointer so the benchmark harness
  /// compiles unchanged).
  FiberScheduler* fiber_scheduler() { return &sched_; }

  // ---- event tracing ----------------------------------------------------

  /// Arms one bounded EventTracer per rank for subsequent run() calls.
  /// Call before run(); each rank writes only its own stream (identity is
  /// the owning Comm's rank, never thread_local state, since every fiber
  /// shares one OS thread).
  void enable_tracing(std::size_t capacity_per_rank = 1u << 20) {
    tracers_.clear();
    tracers_.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
      tracers_.push_back(
          std::make_unique<tracing::EventTracer>(r, capacity_per_rank));
    }
  }

  /// The rank's tracer, or nullptr when tracing is disabled.
  tracing::EventTracer* tracer_of(int world_rank) {
    if (tracers_.empty()) return nullptr;
    return tracers_[static_cast<std::size_t>(world_rank)].get();
  }

  bool tracing_enabled() const { return !tracers_.empty(); }

  /// Per-rank streams for the exporter (empty when tracing is disabled).
  /// Only valid between run() calls — ranks own their streams while
  /// running.
  std::vector<const tracing::EventTracer*> traces() const {
    std::vector<const tracing::EventTracer*> out;
    out.reserve(tracers_.size());
    for (const auto& t : tracers_) out.push_back(t.get());
    return out;
  }

  /// Empties every rank stream (e.g. after a warmup phase or clock reset,
  /// so exported spans align with the measured timeline).
  void clear_traces() {
    for (auto& t : tracers_) t->clear();
  }

  /// Maximum simulated time across ranks (the job's makespan so far).
  double max_clock() const;

  /// Resets all clocks and network busy state (e.g. between experiments).
  void reset_time();

  /// Arms deterministic fault injection for subsequent run() calls (or
  /// disarms it when `injector` is null).  Arming applies the injector's
  /// straggler service scale to the network model; disarming restores
  /// every rank to rated speed.
  void set_fault_injector(std::shared_ptr<faults::FaultInjector> injector) {
    DDS_CHECK_MSG(injector == nullptr || injector->nranks() == nranks_,
                  "fault injector sized for a different world");
    injector_ = std::move(injector);
    for (int r = 0; r < nranks_; ++r) {
      net_.set_service_scale(r,
                             injector_ ? injector_->service_scale_of(r) : 1.0);
    }
    // Time-varying slowdown phases need a per-transfer hook; with none
    // configured, leave the hook empty so the static timing arithmetic is
    // untouched (bit-identical perf baselines).
    if (injector_ != nullptr && injector_->has_dynamic_profiles()) {
      net_.set_dynamic_scale([this](int rank, double now) {
        return injector_ ? injector_->slowdown_of(rank, now) : 1.0;
      });
    } else {
      net_.set_dynamic_scale(nullptr);
    }
  }

  /// The armed injector, or nullptr when faults are off.
  faults::FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  int nranks_;
  model::MachineConfig machine_;
  model::NetworkModel net_;
  AbortFlag abort_;
  FiberScheduler sched_;
  std::vector<model::VirtualClock> clocks_;
  std::vector<Rng> rngs_;
  std::vector<detail::Mailbox> mailboxes_;
  std::vector<std::unique_ptr<tracing::EventTracer>> tracers_;
  std::shared_ptr<faults::FaultInjector> injector_;
  std::shared_ptr<detail::CommShared> world_;
};

}  // namespace dds::simmpi
