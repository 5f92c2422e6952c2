// TargetMap: a rank's per-target records, sized by the targets it touches.
//
// The resilience stage keeps breaker and health records per comm-rank
// target.  A rank fetches from a few dozen targets per epoch, so tables
// sized by the comm cost O(N) per rank and O(N^2) per simulated job.  This
// is an open-addressing hash table (linear probing, Fibonacci hashing,
// load at most 1/2) with the records stored inline: a lookup costs about
// one cache line, like indexing a dense vector, and memory grows with the
// targets actually touched.  Records are never erased; callers reset one
// in place.  Inserting may move every record, so a reference returned by
// touch() is valid only until the next touch().  Nothing iterates the
// table, so its slot order cannot leak into modeled time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dds::core::fetch {

template <typename V>
class TargetMap {
 public:
  /// `target`'s record, or nullptr when it has none.  `target` >= 0.
  const V* find(int target) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(target);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.target == target) return &s.value;
      if (s.target == kEmpty) return nullptr;
    }
  }
  V* find(int target) {
    return const_cast<V*>(std::as_const(*this).find(target));
  }

  /// `target`'s record, inserted as a copy of `fresh` on first touch.
  V& touch(int target, const V& fresh) {
    if (V* v = find(target)) return *v;
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& s = empty_slot(target);
    s.target = target;
    s.value = fresh;
    ++size_;
    return s.value;
  }

  /// Number of targets holding a record.
  std::size_t size() const { return size_; }

 private:
  static constexpr int kEmpty = -1;

  struct Slot {
    int target = kEmpty;
    V value{};
  };

  std::size_t home(int target) const {
    return (static_cast<std::uint32_t>(target) * 0x9E3779B9u) >> shift_;
  }

  Slot& empty_slot(int target) {
    std::size_t i = home(target);
    while (slots_[i].target != kEmpty) i = (i + 1) & (slots_.size() - 1);
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = 32;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.target != kEmpty) empty_slot(s.target) = std::move(s);
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two capacity
  std::size_t size_ = 0;
  int shift_ = 32;  ///< 32 - log2(capacity)
};

}  // namespace dds::core::fetch
