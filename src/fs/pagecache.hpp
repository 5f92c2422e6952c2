// Per-node OS page-cache model.
//
// The cache tracks which (file, block) pairs are resident in a node's page
// cache and evicts in LRU order when nominal capacity is exceeded.  It is a
// timing construct only: actual payload bytes always live in the object
// store; a hit merely means the read is charged memory-speed latency.
// This reproduces the paper's Ising/CFF observation (§4.4): a container
// small enough to fit in node memory is served from cache ("most of the
// graphs are loaded from memory, not from disk").
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/error.hpp"

namespace dds::fs {

class PageCache {
 public:
  /// `capacity_bytes` and all block sizes are in nominal (paper-scale) bytes.
  explicit PageCache(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Looks up a block; on hit, refreshes LRU position and returns true.
  /// On miss, inserts the block (evicting LRU entries as needed) and
  /// returns false — i.e. the caller pays the miss cost exactly once.
  bool access(std::uint64_t file_id, std::uint64_t block_index,
              std::uint64_t block_bytes) {
    const Key key{file_id, block_index};
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return true;
    }
    if (block_bytes > capacity_) {
      ++misses_;  // uncacheably large block
      return false;
    }
    while (used_ + block_bytes > capacity_ && !lru_.empty()) {
      const auto& victim = lru_.back();
      used_ -= victim.bytes;
      map_.erase(victim.key);
      lru_.pop_back();
    }
    lru_.push_front(Entry{key, block_bytes});
    map_[key] = lru_.begin();
    used_ += block_bytes;
    ++misses_;
    return false;
  }

  /// Drops every cached block (e.g. between experiments).
  void clear() {
    lru_.clear();
    map_.clear();
    used_ = 0;
    hits_ = 0;
    misses_ = 0;
  }

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Key {
    std::uint64_t file_id;
    std::uint64_t block;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(k.file_id * 0x9e3779b97f4a7c15ULL ^
                                        k.block);
    }
  };
  struct Entry {
    Key key;
    std::uint64_t bytes;
  };

  const std::uint64_t capacity_;
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  std::uint64_t used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dds::fs
