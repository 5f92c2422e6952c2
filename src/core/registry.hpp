// Chunk placement and the data registry (§3.2 "Data Registry").
//
// A dataset of T samples is striped over the w members of each replica
// group.  ChunkAssignment is the pure placement function (who owns sample
// i, which samples does member g hold, in what order); DataRegistry is the
// materialized index every process consults before issuing an RMA read:
// sample id -> (owner group-rank, byte offset in owner's chunk, length).
// The registry is immutable after its collective build, so lookups are
// lock-free from any rank thread.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace dds::core {

enum class Placement {
  Block,      ///< member g holds the contiguous range [T*g/w, T*(g+1)/w)
  RoundRobin  ///< member g holds samples {i : i % w == g}
};

/// Pure placement arithmetic, identical on every rank.
class ChunkAssignment {
 public:
  ChunkAssignment(std::uint64_t num_samples, int width, Placement placement)
      : num_samples_(num_samples), width_(width), placement_(placement) {
    DDS_CHECK_MSG(width >= 1, "width must be >= 1");
    DDS_CHECK_MSG(num_samples >= static_cast<std::uint64_t>(width),
                  "fewer samples than chunk owners");
  }

  std::uint64_t num_samples() const { return num_samples_; }
  int width() const { return width_; }
  Placement placement() const { return placement_; }

  /// Group rank that owns sample `id`.
  int owner_of(std::uint64_t id) const;

  /// Number of samples member `g` holds.
  std::uint64_t chunk_size(int g) const;

  /// The ids member `g` holds, in chunk storage order.
  std::vector<std::uint64_t> ids_of(int g) const;

  /// Position of `id` within its owner's chunk (storage order).
  std::uint64_t local_index(std::uint64_t id) const;

 private:
  std::uint64_t block_first(int g) const {
    return num_samples_ * static_cast<std::uint64_t>(g) /
           static_cast<std::uint64_t>(width_);
  }

  std::uint64_t num_samples_;
  int width_;
  Placement placement_;
};

/// Immutable sample -> (owner, offset, length, checksum) index.
class DataRegistry {
 public:
  struct Entry {
    std::uint64_t offset;
    std::uint32_t length;
    std::uint32_t owner;
    /// checksum64 digest of the serialized sample (common/checksum.hpp),
    /// computed once at preload.  0 means "no checksum recorded"; fetch
    /// paths skip verification for such entries.
    std::uint64_t checksum = 0;
  };

  /// Builds the registry from each owner's sample lengths in chunk order
  /// (concatenated in owner order, with `counts[g]` lengths per owner).
  /// `checksums_by_owner_order` parallels the lengths span (one digest per
  /// sample); pass an empty span to record no checksums.
  static std::shared_ptr<DataRegistry> build(
      const ChunkAssignment& assignment,
      std::span<const std::uint32_t> lengths_by_owner_order,
      std::span<const std::size_t> counts,
      std::span<const std::uint64_t> checksums_by_owner_order);

  static std::shared_ptr<DataRegistry> build(
      const ChunkAssignment& assignment,
      std::span<const std::uint32_t> lengths_by_owner_order,
      std::span<const std::size_t> counts) {
    return build(assignment, lengths_by_owner_order, counts, {});
  }

  const Entry& lookup(std::uint64_t id) const {
    DDS_CHECK_MSG(id < entries_.size(), "sample id out of range");
    return entries_[id];
  }

  std::uint64_t num_samples() const { return entries_.size(); }

  /// Total chunk bytes owned by member `g`.
  std::uint64_t chunk_bytes(int g) const {
    return chunk_bytes_.at(static_cast<std::size_t>(g));
  }

  std::uint64_t total_bytes() const;

 private:
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> chunk_bytes_;
};

}  // namespace dds::core
