#pragma once
// Header-only open-addressed hash containers for the per-node hot-path
// bookkeeping (in-flight transfers, pre-fetch records, DHT backup sets,
// rate estimates). Designed for the 100k-node memory budget:
//
//   * Robin-Hood linear probing with one metadata byte per slot
//     (probe distance + 1; 0 = empty) — no per-entry heap nodes, no
//     bucket pointer arrays, one allocation for the whole table.
//   * Power-of-two capacity, max load factor 7/8, minimum capacity 4;
//     an empty container owns no heap at all (dead nodes cost nothing).
//   * Tombstone-free erase (backward shift), so long-lived tables never
//     degrade and capacity tracks the live high-water mark.
//   * maybe_shrink() gives periodic sweeps (the per-round GC) a cheap
//     way to return capacity after a burst drains.
//   * Deterministic iteration: slot-scan order, a pure function of the
//     operation history and the hash — independent of thread count,
//     allocator state and pointer values, which is what keeps
//     scenario_fingerprint byte-identical across --threads values.
//
// Erase-during-iteration contract: `it = table.erase(it)` never skips a
// live element. An element displaced across the table's wrap point may
// be visited twice, so erase predicates must be idempotent (every
// expire-style sweep in this codebase is).

#include <cassert>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace continu::util {

/// Default hash: SplitMix64 finalizer over the integral key. Low bits
/// are fully mixed, as power-of-two masking requires.
template <class Key>
struct FlatHash {
  [[nodiscard]] std::size_t operator()(const Key& key) const noexcept {
    return static_cast<std::size_t>(
        mix64(static_cast<std::uint64_t>(key)));
  }
};

namespace detail {

template <class Key, class T>
struct MapSlotPolicy {
  using Slot = std::pair<Key, T>;
  [[nodiscard]] static const Key& key(const Slot& slot) noexcept {
    return slot.first;
  }
};

template <class Key>
struct SetSlotPolicy {
  using Slot = Key;
  [[nodiscard]] static const Key& key(const Slot& slot) noexcept {
    return slot;
  }
};

/// Shared open-addressing core. `Policy` fixes the slot payload (pair
/// for maps, bare key for sets); everything else — probing, growth,
/// backward-shift erase, iteration — is identical.
template <class Policy, class Key, class Hash>
class FlatTable {
 public:
  using Slot = typename Policy::Slot;

  FlatTable() noexcept = default;

  FlatTable(FlatTable&& other) noexcept
      : slots_(other.slots_), dist_(other.dist_), capacity_(other.capacity_),
        size_(other.size_) {
    other.slots_ = nullptr;
    other.dist_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
  }

  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this != &other) {
      destroy();
      slots_ = other.slots_;
      dist_ = other.dist_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.slots_ = nullptr;
      other.dist_ = nullptr;
      other.capacity_ = 0;
      other.size_ = 0;
    }
    return *this;
  }

  FlatTable(const FlatTable& other) { copy_from(other); }

  FlatTable& operator=(const FlatTable& other) {
    if (this != &other) {
      destroy();
      slots_ = nullptr;
      dist_ = nullptr;
      capacity_ = 0;
      size_ = 0;
      copy_from(other);
    }
    return *this;
  }

  ~FlatTable() { destroy(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Heap bytes owned by the table (slot payloads + metadata bytes) —
  /// memory sizing. Capacity-based: this is what the node pays, not
  /// what it currently uses.
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return capacity_ * (sizeof(Slot) + 1);
  }

  // --- iteration ----------------------------------------------------------

  template <bool kConst>
  class Iter {
   public:
    using Table = std::conditional_t<kConst, const FlatTable, FlatTable>;
    using Value = std::conditional_t<kConst, const Slot, Slot>;
    using iterator_category = std::forward_iterator_tag;
    using value_type = Slot;
    using difference_type = std::ptrdiff_t;
    using pointer = Value*;
    using reference = Value&;

    Iter() noexcept = default;
    Iter(Table* table, std::size_t index) noexcept : table_(table), index_(index) {
      skip_empty();
    }
    /// const conversion.
    operator Iter<true>() const noexcept {  // NOLINT(google-explicit-constructor)
      return Iter<true>(table_, index_);
    }

    [[nodiscard]] Value& operator*() const noexcept { return table_->slots_[index_]; }
    [[nodiscard]] Value* operator->() const noexcept { return &table_->slots_[index_]; }

    Iter& operator++() noexcept {
      ++index_;
      skip_empty();
      return *this;
    }

    [[nodiscard]] bool operator==(const Iter& rhs) const noexcept {
      return index_ == rhs.index_;
    }
    [[nodiscard]] bool operator!=(const Iter& rhs) const noexcept {
      return index_ != rhs.index_;
    }

   private:
    friend class FlatTable;
    friend class Iter<true>;
    void skip_empty() noexcept {
      while (index_ < table_->capacity_ && table_->dist_[index_] == 0) ++index_;
    }
    Table* table_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  [[nodiscard]] iterator begin() noexcept { return iterator(this, 0); }
  [[nodiscard]] iterator end() noexcept { return iterator(this, capacity_); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, capacity_);
  }

  // --- lookup -------------------------------------------------------------

  [[nodiscard]] iterator find(const Key& key) noexcept {
    const std::size_t i = probe(key);
    return i == kNpos ? end() : at_index(i);
  }
  [[nodiscard]] const_iterator find(const Key& key) const noexcept {
    const std::size_t i = probe(key);
    return i == kNpos ? end() : const_iterator(this, i);
  }
  [[nodiscard]] std::size_t count(const Key& key) const noexcept {
    return probe(key) == kNpos ? 0 : 1;
  }
  [[nodiscard]] bool contains(const Key& key) const noexcept {
    return probe(key) != kNpos;
  }

  // --- modification -------------------------------------------------------

  /// Erases `key`; returns the number of elements removed (0 or 1).
  std::size_t erase(const Key& key) {
    const std::size_t i = probe(key);
    if (i == kNpos) return 0;
    erase_index(i);
    return 1;
  }

  /// Erases the element at `it`; returns the iterator to resume from
  /// (see the erase-during-iteration contract in the header comment).
  iterator erase(const_iterator it) {
    erase_index(it.index_);
    return at_index(it.index_);
  }

  /// Drops every element; keeps the current capacity (callers about to
  /// refill at the same scale). Use shrink_to_fit() to return memory.
  void clear() noexcept {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (dist_[i] != 0) {
        slots_[i].~Slot();
        dist_[i] = 0;
      }
    }
    size_ = 0;
  }

  /// Rehashes to the smallest valid capacity when the table is mostly
  /// empty (size <= capacity/4, capacity > minimum). Cheap enough to
  /// call from a periodic GC sweep; the factor-of-two hysteresis keeps
  /// a steady-state table from thrashing.
  void maybe_shrink() {
    if (capacity_ <= kMinCapacity || size_ * 4 > capacity_) return;
    if (size_ == 0) {
      destroy();
      slots_ = nullptr;
      dist_ = nullptr;
      capacity_ = 0;
      return;
    }
    rehash_to(capacity_for(size_));
  }

  /// Rehashes to exactly fit the current size.
  void shrink_to_fit() {
    if (size_ == 0) {
      destroy();
      slots_ = nullptr;
      dist_ = nullptr;
      capacity_ = 0;
      return;
    }
    const std::size_t target = capacity_for(size_);
    if (target < capacity_) rehash_to(target);
  }

  /// Ensures capacity for `n` elements without further growth.
  void reserve(std::size_t n) {
    const std::size_t target = capacity_for(n);
    if (target > capacity_) rehash_to(target);
  }

 protected:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 4;

  [[nodiscard]] iterator at_index(std::size_t i) noexcept {
    iterator it;
    it.table_ = this;
    it.index_ = i;
    if (i < capacity_ && dist_[i] == 0) it.skip_empty();
    return it;
  }

  /// Index of `key`, or kNpos. Robin-Hood early exit: stop as soon as
  /// the resident's probe distance is shorter than ours.
  [[nodiscard]] std::size_t probe(const Key& key) const noexcept {
    if (capacity_ == 0) return kNpos;
    const std::size_t mask = capacity_ - 1;
    std::size_t i = Hash{}(key)&mask;
    std::uint8_t dist = 1;
    for (;;) {
      const std::uint8_t m = dist_[i];
      if (m < dist) return kNpos;  // empty (0) or richer resident
      if (m == dist && Policy::key(slots_[i]) == key) return i;
      i = (i + 1) & mask;
      ++dist;
      // Stored probe distances never exceed the metadata byte (inserts
      // grow instead), so a wrapped distance proves absence.
      if (dist == 0) return kNpos;
    }
  }

  /// Inserts a slot known to be absent; returns its resting index.
  /// The caller has already ensured capacity.
  std::size_t insert_absent(Slot&& slot) {
    const std::size_t mask = capacity_ - 1;
    std::size_t i = Hash{}(Policy::key(slot)) & mask;
    std::uint8_t dist = 1;
    Slot carried = std::move(slot);
    std::size_t placed = kNpos;
    for (;;) {
      if (dist_[i] == 0) {
        new (&slots_[i]) Slot(std::move(carried));
        dist_[i] = dist;
        ++size_;
        return placed == kNpos ? i : placed;
      }
      if (dist_[i] < dist) {
        // Rob the richer resident: it carries on from here.
        std::swap(carried, slots_[i]);
        std::swap(dist, dist_[i]);
        if (placed == kNpos) placed = i;
      }
      i = (i + 1) & mask;
      ++dist;
      if (dist == 0) {
        // Probe distance overflowed the metadata byte (pathological
        // clustering). Grow and restart with the carried element.
        grow();
        return insert_absent(std::move(carried));
      }
    }
  }

  /// Grows if inserting one more element would exceed 7/8 load.
  void ensure_room() {
    if (capacity_ == 0 || (size_ + 1) * 8 > capacity_ * 7) grow();
  }

  void grow() { rehash_to(capacity_ == 0 ? kMinCapacity : capacity_ * 2); }

  /// Smallest power-of-two capacity holding `n` elements at <= 7/8.
  [[nodiscard]] static std::size_t capacity_for(std::size_t n) noexcept {
    std::size_t cap = kMinCapacity;
    while (n * 8 > cap * 7) cap *= 2;
    return cap;
  }

  void rehash_to(std::size_t new_capacity) {
    Slot* old_slots = slots_;
    std::uint8_t* old_meta = dist_;
    const std::size_t old_capacity = capacity_;

    allocate(new_capacity);
    size_ = 0;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_meta[i] != 0) {
        insert_absent(std::move(old_slots[i]));
        old_slots[i].~Slot();
      }
    }
    deallocate(old_slots, old_capacity);
  }

  /// Backward-shift deletion: pull the rest of the probe chain one slot
  /// toward home, leaving no tombstone.
  void erase_index(std::size_t i) {
    const std::size_t mask = capacity_ - 1;
    std::size_t j = (i + 1) & mask;
    while (dist_[j] > 1) {
      slots_[i] = std::move(slots_[j]);
      dist_[i] = static_cast<std::uint8_t>(dist_[j] - 1);
      i = j;
      j = (j + 1) & mask;
    }
    slots_[i].~Slot();
    dist_[i] = 0;
    --size_;
  }

  // One allocation per table: [Slot x capacity][meta byte x capacity].
  void allocate(std::size_t capacity) {
    const std::size_t bytes = capacity * (sizeof(Slot) + 1);
    auto* raw = static_cast<std::uint8_t*>(
        ::operator new(bytes, std::align_val_t{alignof(Slot)}));
    slots_ = reinterpret_cast<Slot*>(raw);
    dist_ = raw + capacity * sizeof(Slot);
    std::memset(dist_, 0, capacity);
    capacity_ = capacity;
  }

  void deallocate(Slot* slots, std::size_t capacity) noexcept {
    if (slots != nullptr) {
      ::operator delete(static_cast<void*>(slots),
                        capacity * (sizeof(Slot) + 1),
                        std::align_val_t{alignof(Slot)});
    }
  }

  void destroy() noexcept {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (dist_[i] != 0) slots_[i].~Slot();
    }
    deallocate(slots_, capacity_);
  }

  void copy_from(const FlatTable& other) {
    if (other.size_ == 0) return;
    allocate(other.capacity_);
    size_ = 0;
    for (std::size_t i = 0; i < other.capacity_; ++i) {
      if (other.dist_[i] != 0) {
        new (&slots_[i]) Slot(other.slots_[i]);
        dist_[i] = other.dist_[i];
        ++size_;
      }
    }
  }

  Slot* slots_ = nullptr;
  std::uint8_t* dist_ = nullptr;  ///< per-slot probe distance + 1; 0 = empty
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Open-addressed flat map. Drop-in for the std::unordered_map uses in
/// the per-node bookkeeping; iteration yields std::pair<Key, T>& in
/// deterministic slot order (keys must not be mutated through it).
template <class Key, class T, class Hash = FlatHash<Key>>
class FlatMap
    : public detail::FlatTable<detail::MapSlotPolicy<Key, T>, Key, Hash> {
  using Base = detail::FlatTable<detail::MapSlotPolicy<Key, T>, Key, Hash>;

 public:
  using value_type = typename Base::Slot;
  using iterator = typename Base::iterator;
  using const_iterator = typename Base::const_iterator;

  /// Inserts {key, T(args...)} if absent. Returns {iterator, inserted}.
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    const std::size_t existing = this->probe(key);
    if (existing != Base::kNpos) return {this->at_index(existing), false};
    this->ensure_room();
    const std::size_t cap_before = this->capacity();
    const std::size_t placed =
        this->insert_absent(value_type(key, T(std::forward<Args>(args)...)));
    // insert_absent's index is correct unless the (pathological)
    // grow-on-probe-overflow path rehashed mid-insert — detectable as a
    // capacity change; only then pay a re-probe.
    return {this->at_index(this->capacity() == cap_before ? placed
                                                          : this->probe(key)),
            true};
  }

  /// Inserts or assigns.
  template <class U>
  std::pair<iterator, bool> insert_or_assign(const Key& key, U&& value) {
    auto [it, inserted] = try_emplace(key, std::forward<U>(value));
    if (!inserted) it->second = std::forward<U>(value);
    return {it, inserted};
  }

  [[nodiscard]] T& operator[](const Key& key) {
    return try_emplace(key).first->second;
  }

  /// at() without exceptions is deliberate: the hot paths never look up
  /// keys they have not inserted; asserts in debug, UB in release.
  [[nodiscard]] T& at(const Key& key) {
    auto it = this->find(key);
    assert(it != this->end() && "FlatMap::at: key absent");
    return it->second;
  }
  [[nodiscard]] const T& at(const Key& key) const {
    auto it = this->find(key);
    assert(it != this->end() && "FlatMap::at: key absent");
    return it->second;
  }
};

/// Open-addressed flat set: the FlatMap core storing bare keys (9 bytes
/// per int64 slot at capacity). Used where values were always `true` or
/// the container was a std::set of ids.
template <class Key, class Hash = FlatHash<Key>>
class FlatSet : public detail::FlatTable<detail::SetSlotPolicy<Key>, Key, Hash> {
  using Base = detail::FlatTable<detail::SetSlotPolicy<Key>, Key, Hash>;

 public:
  using value_type = Key;
  using iterator = typename Base::iterator;
  using const_iterator = typename Base::const_iterator;

  /// Inserts `key` if absent. Returns {iterator, inserted}.
  std::pair<iterator, bool> insert(const Key& key) {
    const std::size_t existing = this->probe(key);
    if (existing != Base::kNpos) return {this->at_index(existing), false};
    this->ensure_room();
    const std::size_t cap_before = this->capacity();
    const std::size_t placed = this->insert_absent(Key(key));
    return {this->at_index(this->capacity() == cap_before ? placed
                                                          : this->probe(key)),
            true};
  }
};

/// A FlatSet that clear() returns to a fresh set's iteration order
/// without giving back its memory. FlatTable's slot order depends on
/// the capacity it grew through (a rehash re-inserts in the old slot
/// order), so a cleared, still-large table would iterate the same keys
/// differently. This keeps one table per capacity it has reached and
/// replays FlatTable's growth between them: after clear(), the same
/// insertions iterate exactly as a newly constructed FlatSet — or a
/// FlatMap with the same Key and Hash — would, and once every level
/// has been reached inserting allocates nothing.
template <class Key, class Hash = FlatHash<Key>>
class ReusableFlatSet {
 public:
  /// Inserts `key` if absent; true when it was.
  bool insert(const Key& key) {
    if (levels_.empty()) add_level(kMinCapacity);
    if (levels_[level_].contains(key)) return false;
    const std::size_t capacity = levels_[level_].capacity();
    if ((levels_[level_].size() + 1) * 8 > capacity * 7) {
      // FlatTable::ensure_room would double here: re-insert in slot
      // order, as its rehash does.
      if (level_ + 1 == levels_.size()) add_level(capacity * 2);
      for (const Key& moved : levels_[level_]) levels_[level_ + 1].insert(moved);
      levels_[level_].clear();
      ++level_;
    }
    levels_[level_].insert(key);
    return true;
  }

  void clear() noexcept {
    if (levels_.empty()) return;
    levels_[level_].clear();
    level_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return levels_.empty() ? 0 : levels_[level_].size();
  }
  using const_iterator = typename FlatSet<Key, Hash>::const_iterator;
  [[nodiscard]] const_iterator begin() const noexcept {
    return levels_.empty() ? const_iterator() : levels_[level_].begin();
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return levels_.empty() ? const_iterator() : levels_[level_].end();
  }

 private:
  static constexpr std::size_t kMinCapacity = 4;  // FlatTable's first table

  void add_level(std::size_t capacity) {
    levels_.emplace_back();
    // The largest size whose table is exactly `capacity` at 7/8 load.
    levels_.back().reserve(capacity * 7 / 8);
    assert(levels_.back().capacity() == capacity);
  }

  std::vector<FlatSet<Key, Hash>> levels_;
  std::size_t level_ = 0;
};

}  // namespace continu::util
