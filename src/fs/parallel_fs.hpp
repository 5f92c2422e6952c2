// Simulated parallel filesystem (Lustre/GPFS stand-in).
//
// Data plane: an in-memory object store keyed by path — files
// hold real bytes, so formats and DDStore's preloader read genuine data.
// Time plane: every *timed* read charges the caller's VirtualClock using
// the FsParams cost model: metadata ops queue at a metadata-server
// BusyResource, block transfers queue at an aggregate-bandwidth
// BusyResource, and each node's PageCache turns re-reads of resident
// blocks into memory-speed hits.
//
// Nominal vs actual bytes: each file carries a nominal size — the size the
// paper's full-scale dataset would have.  Generators write small real
// payloads; the cost model, block math, and page cache all operate in
// nominal space (scaled by nominal_size / actual_size), so a 60 GB
// container behaves like 60 GB even when its real payload is 60 MB.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fs/pagecache.hpp"
#include "model/clock.hpp"
#include "model/machine.hpp"

namespace dds::faults {
class FaultInjector;
}

namespace dds::fs {

/// Lightweight handle returned by FsClient::open.
///
/// Holds a pointer to the file's payload: map nodes are pointer-stable, and
/// files are immutable once staged, so the ref stays valid as long as the
/// file is not removed (don't remove files while readers hold refs).
struct FileRef {
  std::uint64_t id = 0;
  std::uint64_t actual_size = 0;
  std::uint64_t nominal_size = 0;
  /// nominal bytes per actual byte (>= 1 in scaled-down runs).
  double scale = 1.0;
  const ByteBuffer* payload = nullptr;
};

/// Aggregate counters a client accumulates (per rank).
struct FsClientStats {
  std::uint64_t opens = 0;
  std::uint64_t reads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t nominal_bytes_read = 0;
};

class ParallelFileSystem {
 public:
  ParallelFileSystem(model::FsParams params, int nnodes);

  ParallelFileSystem(const ParallelFileSystem&) = delete;
  ParallelFileSystem& operator=(const ParallelFileSystem&) = delete;

  // ---- untimed staging interface (dataset preparation) -----------------

  /// Creates or replaces a file.  `nominal_size` defaults to the actual
  /// payload size; pass the paper-scale size for scaled-down datasets.
  void write_file(const std::string& path, ByteSpan data,
                  std::uint64_t nominal_size = 0);

  bool exists(const std::string& path) const;
  std::uint64_t file_size(const std::string& path) const;
  std::uint64_t nominal_file_size(const std::string& path) const;
  void remove(const std::string& path);
  /// All paths with the given prefix, sorted.
  std::vector<std::string> list(const std::string& prefix) const;
  std::size_t file_count() const;
  std::uint64_t total_nominal_bytes() const;

  /// Untimed whole-file read (tooling/verification).
  ByteBuffer read_file_raw(const std::string& path) const;

  /// Untimed FileRef construction (for long-lived handles whose open cost
  /// is charged separately, e.g. container subfiles opened once per job).
  FileRef make_ref(const std::string& path) const;

  /// Drops all page-cache state and FS queue backlog (between runs).
  void reset_time_state();

  /// Deferred fine-grained staging read (the tiered store's cold tier):
  /// queues `nominal_bytes` of demand at the shared data path as of
  /// `ready` and returns the modeled completion — per-read latency plus
  /// seek penalty plus the queued bandwidth share — WITHOUT touching any
  /// clock.  The caller owns when (and whether) to advance to it; that is
  /// what lets a deep staging queue overlap storage reads with RMA traffic
  /// and compute (the get_deferred pattern).  Object reads, not block
  /// reads: no page-cache participation and no block amplification,
  /// mirroring GIDS-style fine-grained storage access.
  double stage_read_at(double ready, std::uint64_t nominal_bytes);

  const model::FsParams& params() const { return params_; }
  int nnodes() const { return nnodes_; }
  PageCache& node_cache(int node) { return *caches_.at(static_cast<std::size_t>(node)); }

 private:
  friend class FsClient;

  struct FileObject {
    std::uint64_t id;
    ByteBuffer data;
    std::uint64_t nominal_size;
  };

  const FileObject& lookup(const std::string& path) const;

  model::FsParams params_;
  int nnodes_;
  std::unordered_map<std::string, FileObject> files_;
  std::uint64_t next_id_ = 1;

  model::BusyResource mds_;        ///< metadata server (opens serialize here)
  model::BusyResource bandwidth_;  ///< aggregate data path
  std::vector<std::unique_ptr<PageCache>> caches_;  ///< one per node
};

/// Per-rank timed access to the filesystem.  Holds the rank's node id,
/// clock, and RNG stream (for jitter), mirroring how a real rank's POSIX
/// calls would be served by its node's kernel and the shared FS.
class FsClient {
 public:
  FsClient(ParallelFileSystem& fs, int node, model::VirtualClock& clock,
           Rng& rng)
      : fs_(&fs), node_(node), clock_(&clock), rng_(&rng) {
    DDS_CHECK(node >= 0 && node < fs.nnodes());
  }

  /// Timed open: pays the metadata-server cost (the PFF killer).
  FileRef open(const std::string& path);

  /// Timed positional read of actual bytes [offset, offset+dst.size()).
  /// `sequential` selects the sequential- vs random-read cost path;
  /// `cacheable` controls page-cache participation — container blocks are
  /// cacheable, but millions of tiny per-object files thrash the
  /// dentry/page cache in practice and are modelled as uncacheable.
  void pread(const FileRef& file, MutableByteSpan dst, std::uint64_t offset,
             bool sequential = false, bool cacheable = true);

  /// Timed open + whole-file read (the PFF per-sample path).
  ByteBuffer read_file(const std::string& path);

  const FsClientStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  model::VirtualClock& clock() { return *clock_; }
  ParallelFileSystem& fs() { return *fs_; }
  int node() const { return node_; }

  /// Arms transient read-error injection for this client: while armed,
  /// timed preads may throw IoError per the injector's FS stream for
  /// `world_rank`.  DDStore arms this only around its preload phase so the
  /// last-resort FS fallback path stays reliable.  Pass nullptr to disarm.
  void arm_faults(faults::FaultInjector* injector, int world_rank) {
    faults_ = injector;
    fault_rank_ = world_rank;
  }
  void disarm_faults() { faults_ = nullptr; }

 private:
  double jitter();

  ParallelFileSystem* fs_;
  int node_;
  model::VirtualClock* clock_;
  Rng* rng_;
  faults::FaultInjector* faults_ = nullptr;
  int fault_rank_ = -1;
  FsClientStats stats_;
};

}  // namespace dds::fs
