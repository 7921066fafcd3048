#pragma once
// Open-addressing term map keyed by PackedMono: the arena half of the packed
// polynomial tier. The generic unordered_map paid one node allocation plus a
// pointer chase per term; here every (monomial, coefficient) pair lives in a
// single contiguous slot array — the arena — probed linearly from the
// monomial's own full-avalanche hash. Growth doubles the arena and rehashes;
// erasure leaves a tombstone, and the next growth-check purges tombstones by
// rehashing in place when live terms are the minority.
//
// Semantics intentionally mirror the std::unordered_map subset the
// polynomial layer uses (try_emplace / find / at / erase(iterator) /
// iteration / operator==), except that try_emplace takes the key by value (a
// PackedMono move is two words).
//
// allocated_bytes() is exact (capacity × slot footprint), which the rewriter
// reports to the rewriter.terms ResourceBudget site.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "abstraction/packed_mono.h"

namespace gfa {

template <class V>
class PackedTermMap {
 public:
  using key_type = PackedMono;
  using mapped_type = V;
  using value_type = std::pair<PackedMono, V>;

  PackedTermMap() = default;
  PackedTermMap(PackedTermMap&& o) noexcept { swap(o); }
  PackedTermMap& operator=(PackedTermMap&& o) noexcept {
    if (this != &o) {
      PackedTermMap tmp(std::move(o));
      swap(tmp);
    }
    return *this;
  }
  PackedTermMap(const PackedTermMap& o) {
    reserve(o.size_);
    for (std::size_t i = 0; i < o.cap_; ++i)
      if (o.ctrl_[i] == kFull) try_emplace(o.slots_[i].first, o.slots_[i].second);
  }
  PackedTermMap& operator=(const PackedTermMap& o) {
    if (this != &o) {
      PackedTermMap tmp(o);
      swap(tmp);
    }
    return *this;
  }

  template <bool Const>
  class iter {
   public:
    using value_type = typename PackedTermMap::value_type;
    using Map = std::conditional_t<Const, const PackedTermMap, PackedTermMap>;
    using Value = std::conditional_t<Const, const value_type, value_type>;
    using iterator_category = std::forward_iterator_tag;
    using difference_type = std::ptrdiff_t;
    using pointer = Value*;
    using reference = Value&;

    iter() = default;
    iter(Map* m, std::size_t i) : m_(m), i_(i) {}
    /// iterator -> const_iterator.
    template <bool C = Const, class = std::enable_if_t<C>>
    iter(const iter<false>& o) : m_(o.map()), i_(o.index()) {}

    Value& operator*() const { return m_->slots_[i_]; }
    Value* operator->() const { return &m_->slots_[i_]; }
    iter& operator++() {
      i_ = m_->next_full(i_ + 1);
      return *this;
    }
    iter operator++(int) {
      iter c = *this;
      ++*this;
      return c;
    }
    template <bool C>
    bool operator==(const iter<C>& o) const {
      return i_ == o.index();
    }
    template <bool C>
    bool operator!=(const iter<C>& o) const {
      return i_ != o.index();
    }

    Map* map() const { return m_; }
    std::size_t index() const { return i_; }

   private:
    Map* m_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = iter<false>;
  using const_iterator = iter<true>;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  iterator begin() { return {this, next_full(0)}; }
  iterator end() { return {this, cap_}; }
  const_iterator begin() const { return {this, next_full(0)}; }
  const_iterator end() const { return {this, cap_}; }

  iterator find(const PackedMono& key) { return {this, find_index(key)}; }
  const_iterator find(const PackedMono& key) const {
    return {this, find_index(key)};
  }

  /// Warms the cache lines a find/try_emplace of `key` will touch first.
  /// The reduction chain's probes are independent random accesses into a
  /// table far larger than L2; issuing the next term's prefetch before
  /// processing the current one overlaps the memory latency instead of
  /// serializing it. Purely advisory — no observable state changes.
  void prefetch(const PackedMono& key) const {
    if (cap_ == 0) return;
    const std::size_t i = key.hash() & (cap_ - 1);
    __builtin_prefetch(ctrl_.get() + i, 0, 1);
    __builtin_prefetch(slots_.get() + i, 0, 1);
  }

  V& at(const PackedMono& key) {
    const std::size_t i = find_index(key);
    if (i == cap_) throw std::out_of_range("PackedTermMap::at: no such key");
    return slots_[i].second;
  }
  const V& at(const PackedMono& key) const {
    return const_cast<PackedTermMap*>(this)->at(key);
  }

  /// Inserts (key, V(args...)) unless the key is present; mirrors
  /// unordered_map::try_emplace but takes the key by value (two-word move).
  template <class... Args>
  std::pair<iterator, bool> try_emplace(PackedMono key, Args&&... args) {
    if (cap_ == 0) rehash(kMinCapacity);
    std::size_t tomb = npos;
    std::size_t i = probe(key, tomb);
    if (i != npos) return {iterator{this, i}, false};
    if ((used_ + 1) * 4 > cap_ * 3) {
      // Grow when live terms dominate, purge tombstones in place otherwise.
      rehash((size_ + 1) * 2 > cap_ ? cap_ * 2 : cap_);
      tomb = npos;
      i = probe(key, tomb);
    }
    std::size_t target = tomb;
    if (target == npos) {
      target = free_;  // the empty slot probe() stopped at
      ++used_;
    }
    slots_[target].first = std::move(key);
    slots_[target].second = V(std::forward<Args>(args)...);
    ctrl_[target] = kFull;
    ++size_;
    return {iterator{this, target}, true};
  }

  void erase(iterator it) {
    const std::size_t i = it.index();
    slots_[i] = value_type();
    ctrl_[i] = kTomb;
    --size_;
  }

  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (n * 4 > want * 3) want *= 2;
    if (want > cap_) rehash(want);
  }

  /// Exact arena footprint: slots plus one control byte per slot.
  std::size_t allocated_bytes() const {
    return cap_ * (sizeof(value_type) + 1);
  }

  /// Number of slots a find(key) walks before terminating (hit or empty
  /// slot), counting the final one — so a first-slot hit is 1. Observability
  /// re-walk for the rewriter.probe_len histogram; never called on the hot
  /// probe itself.
  std::size_t probe_length(const PackedMono& key) const {
    if (cap_ == 0) return 0;
    std::size_t i = key.hash() & (cap_ - 1);
    std::size_t steps = 1;
    while (true) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty || (c == kFull && slots_[i].first == key)) return steps;
      i = (i + 1) & (cap_ - 1);
      ++steps;
    }
  }

  /// Unordered (set) equality, as unordered_map defines it.
  bool operator==(const PackedTermMap& o) const {
    if (size_ != o.size_) return false;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (ctrl_[i] != kFull) continue;
      const std::size_t j = o.find_index(slots_[i].first);
      if (j == o.cap_ || !(o.slots_[j].second == slots_[i].second))
        return false;
    }
    return true;
  }
  bool operator!=(const PackedTermMap& o) const { return !(*this == o); }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::uint8_t kEmpty = 0, kFull = 1, kTomb = 2;

  void swap(PackedTermMap& o) noexcept {
    std::swap(slots_, o.slots_);
    std::swap(ctrl_, o.ctrl_);
    std::swap(cap_, o.cap_);
    std::swap(size_, o.size_);
    std::swap(used_, o.used_);
    std::swap(free_, o.free_);
  }

  std::size_t next_full(std::size_t i) const {
    while (i < cap_ && ctrl_[i] != kFull) ++i;
    return i;
  }

  /// Index of `key`, or cap_ (== end) when absent.
  std::size_t find_index(const PackedMono& key) const {
    if (cap_ == 0) return cap_;
    std::size_t i = key.hash() & (cap_ - 1);
    while (true) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) return cap_;
      if (c == kFull && slots_[i].first == key) return i;
      i = (i + 1) & (cap_ - 1);
    }
  }

  /// Probes for `key`: returns its index when present (npos otherwise),
  /// records the first tombstone seen in `tomb`, and leaves the terminating
  /// empty slot in free_ for the insert that follows a miss.
  std::size_t probe(const PackedMono& key, std::size_t& tomb) {
    std::size_t i = key.hash() & (cap_ - 1);
    while (true) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) {
        free_ = i;
        return npos;
      }
      if (c == kTomb) {
        if (tomb == npos) tomb = i;
      } else if (slots_[i].first == key) {
        return i;
      }
      i = (i + 1) & (cap_ - 1);
    }
  }

  void rehash(std::size_t new_cap) {
    auto slots = std::make_unique<value_type[]>(new_cap);
    auto ctrl = std::make_unique<std::uint8_t[]>(new_cap);  // zero == kEmpty
    // Entries scatter into the new arrays at random; a large table's rehash
    // is therefore one cold miss per entry if placed naively. The hashes are
    // all known up front, so run a small window ahead of the placements and
    // prefetch each entry's home line before it is needed. Placement order
    // (old-slot order) is unchanged — the window only warms lines.
    constexpr std::size_t kWindow = 8;
    std::size_t look = 0;  // next old slot to prefetch
    std::size_t in_flight = 0;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (ctrl_[i] != kFull) continue;
      while (in_flight < kWindow && look < cap_) {
        if (ctrl_[look] == kFull) {
          const std::size_t h = slots_[look].first.hash() & (new_cap - 1);
          __builtin_prefetch(ctrl.get() + h, 1, 1);
          __builtin_prefetch(slots.get() + h, 1, 1);
          ++in_flight;
        }
        ++look;
      }
      if (in_flight > 0) --in_flight;
      std::size_t j = slots_[i].first.hash() & (new_cap - 1);
      while (ctrl[j] == kFull) j = (j + 1) & (new_cap - 1);
      slots[j] = std::move(slots_[i]);
      ctrl[j] = kFull;
    }
    slots_ = std::move(slots);
    ctrl_ = std::move(ctrl);
    cap_ = new_cap;
    used_ = size_;
  }

  std::unique_ptr<value_type[]> slots_;
  std::unique_ptr<std::uint8_t[]> ctrl_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live + tombstones (probe-chain occupancy)
  std::size_t free_ = 0;  // scratch: empty slot the last failed probe hit
};

}  // namespace gfa
