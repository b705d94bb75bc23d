#pragma once
// BlockPool and ChunkRing — the one storage design under the event
// queue's action slots (sim/event_queue.hpp), the round scheduler's
// participant slots (sim/round_scheduler.hpp), the event calendar's
// bucket ring (sim/calendar_queue.hpp) and the quantized delivery
// buckets (net/bucket_ring.hpp), which keep only their policy and their
// own item, chunk and block sizes.
//
// BlockPool: items in blocks of 2^kBlockShift, each block an items
// array then a links array (one link word per item). Blocks never move
// or get freed, so an item keeps its address while in use (an event
// action runs in its slot while it schedules more), and the bytes follow
// the high-water mark. An item's link word is its owner's while in use
// (the event queue's live EventId, the chunk ring's next chunk) and the
// LIFO free list's while free. kNone, the caller's kLimit, ends the free
// list and is never handed out: grow() throws std::length_error when
// every index below it is taken. New blocks zero their links and
// default-initialise their items, leaving trivial items' pages untouched.
//
// ChunkRing: lists of fixed-size chunks from one BlockPool. A List
// {head, count} owns nothing (it can sit in a ring slot, a map node or a
// batch); its chunks run newest first, and only the head chunk is
// partly filled (count mod kChunkEntries, 0 = full). kSlots lists form a
// ring, absolute index k in slot k mod kSlots, with one bitmap bit per
// slot that the owner sets; next_occupied(from, end) scans up to kSlots
// indices across the wrap. append() returns raw storage for the caller
// to construct in; drain() and release() return chunks newest first
// without destructors (drain's visitor runs them), so a list's oldest
// chunk is reused first.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace continu::util {

template <typename Item, typename Link, unsigned kBlockShift,
          std::uint32_t kLimit = ~std::uint32_t{0}>
class BlockPool {
  static_assert(std::is_unsigned_v<Link> && sizeof(Link) >= sizeof(std::uint32_t),
                "a link word must hold any item index");
  static constexpr std::uint32_t kPerBlock = std::uint32_t{1} << kBlockShift;
  struct Block {
    Item items[kPerBlock];
    Link links[kPerBlock] = {};
  };

 public:
  /// Free-list terminator; never handed out.
  static constexpr std::uint32_t kNone = kLimit;
  /// Pool bytes per item: the item plus its link word.
  static constexpr std::size_t kBytesPerItem = sizeof(Block) / kPerBlock;

  [[nodiscard]] Item& item(std::uint32_t i) noexcept {
    return blocks_[i >> kBlockShift]->items[i & (kPerBlock - 1)];
  }
  [[nodiscard]] const Item& item(std::uint32_t i) const noexcept {
    return blocks_[i >> kBlockShift]->items[i & (kPerBlock - 1)];
  }
  [[nodiscard]] Link& link(std::uint32_t i) noexcept {
    return blocks_[i >> kBlockShift]->links[i & (kPerBlock - 1)];
  }
  [[nodiscard]] const Link& link(std::uint32_t i) const noexcept {
    return blocks_[i >> kBlockShift]->links[i & (kPerBlock - 1)];
  }

  /// Items handed out so far; every index below it is valid.
  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  /// The free list's head, or kNone.
  [[nodiscard]] std::uint32_t free_head() const noexcept { return free_; }

  /// Unlinks the free list's head (requires one); returns the new head.
  std::uint32_t pop_free() noexcept { return free_ = static_cast<std::uint32_t>(link(free_)); }

  /// A free item: the free list's head, else a new one.
  [[nodiscard]] std::uint32_t acquire() {
    const std::uint32_t i = free_;
    if (i == kNone) return grow();
    pop_free();
    return i;
  }

  /// Hands out a new item, adding a block at each block boundary. Kept
  /// out of line: it runs once per item ever, beside hot callers.
  [[nodiscard, gnu::noinline]] std::uint32_t grow() {
    if (count_ >= kLimit) throw std::length_error("util::BlockPool: index space exhausted");
    if ((count_ & (kPerBlock - 1)) == 0) blocks_.push_back(std::unique_ptr<Block>(new Block));
    return count_++;
  }

  /// Puts item i on the free list; its link word becomes the list's.
  void release(std::uint32_t i) noexcept {
    link(i) = free_;
    free_ = i;
  }

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return blocks_.capacity() * sizeof(blocks_[0]) + blocks_.size() * sizeof(Block);
  }

 private:
  std::vector<std::unique_ptr<Block>> blocks_;
  std::uint32_t free_ = kNone;
  std::uint32_t count_ = 0;
};

template <typename Entry, std::uint32_t kChunkEntries, std::size_t kChunkAlign,
          unsigned kBlockShift, std::uint64_t kSlots>
class ChunkRing {
  static_assert((kChunkEntries & (kChunkEntries - 1)) == 0,
                "chunk fill is count modulo a power of two");
  static_assert((kSlots & (kSlots - 1)) == 0 && kSlots >= 64,
                "the ring is a power of two of whole bitmap words");
  struct alignas(kChunkAlign) Chunk {
    alignas(Entry) unsigned char bytes[kChunkEntries * sizeof(Entry)];
  };
  using Pool = BlockPool<Chunk, std::uint32_t, kBlockShift>;

 public:
  static constexpr std::uint32_t kNoChunk = Pool::kNone;
  static constexpr std::size_t kChunkBytes = sizeof(Chunk);

  struct List {
    std::uint32_t head = kNoChunk;
    std::uint32_t count = 0;
  };

  /// `with_slots` false makes a store of detached lists only: no slot
  /// or bitmap memory, and no slot operation may be used.
  explicit ChunkRing(bool with_slots = true)
      : slots_(with_slots ? kSlots : 0), bits_(with_slots ? kSlots / 64 : 0) {}

  /// Raw storage for the list's next entry, in a new head chunk when the
  /// current one is full; the list counts it at once.
  [[nodiscard]] void* append(List& list) {
    const std::uint32_t fill = list.count & (kChunkEntries - 1);
    if (fill == 0) {
      const std::uint32_t c = pool_.acquire();
      pool_.link(c) = list.head;
      list.head = c;
      ++live_chunks_;
    }
    ++list.count;
    return pool_.item(list.head).bytes + fill * sizeof(Entry);
  }

  /// Visits the list's chunks newest first as visit(entries, n), n being
  /// the head chunk's fill and then kChunkEntries, and hands each chunk
  /// back after its visit, prefetching the next (older chunks were
  /// written long ago). Leaves the list empty.
  template <typename Visit>
  void drain(List& list, Visit&& visit) {
    std::uint32_t left = list.count;
    std::uint32_t n = head_fill(left);
    for (std::uint32_t c = list.head; left != 0; n = kChunkEntries) {
      const std::uint32_t next = pool_.link(c);
      if (left > n) prefetch(next);
      visit(entries(c), n);
      left -= n;
      pool_.release(c);
      --live_chunks_;
      c = next;
    }
    list = List{};
  }

  /// Hands the list's chunks back without touching its entries.
  void release(List& list) noexcept {
    drain(list, [](Entry*, std::uint32_t) {});
  }

  /// Fills `out` with the list's entries in filing order.
  void filing_order(const List& list, std::vector<Entry*>& out) {
    out.resize(list.count);
    std::uint32_t left = list.count;
    std::uint32_t n = head_fill(left);
    for (std::uint32_t c = list.head; left != 0; n = kChunkEntries) {
      Entry* chunk = entries(c);
      c = pool_.link(c);
      if (c != kNoChunk) prefetch(c);
      for (std::uint32_t i = n; i-- > 0;) out[--left] = chunk + i;
    }
  }

  [[nodiscard]] List& slot(std::uint64_t k) noexcept { return slots_[k & (kSlots - 1)]; }
  void mark(std::uint64_t k) noexcept { word(k) |= bit(k); }
  void unmark(std::uint64_t k) noexcept { word(k) &= ~bit(k); }

  /// First marked absolute index in [from, end), or `end` when there is
  /// none. Requires end - from <= kSlots.
  [[nodiscard]] std::uint64_t next_occupied(std::uint64_t from,
                                            std::uint64_t end) const noexcept {
    for (; from < end; from = (from | 63) + 1) {
      const std::uint64_t bits =
          bits_[(from & (kSlots - 1)) >> 6] & (~std::uint64_t{0} << (from & 63));
      if (bits != 0) {
        const std::uint64_t found =
            (from & ~std::uint64_t{63}) + static_cast<std::uint64_t>(__builtin_ctzll(bits));
        return found < end ? found : end;
      }
    }
    return end;
  }

  /// Bytes of the chunks that lists hold.
  [[nodiscard]] std::size_t live_bytes() const noexcept { return live_chunks_ * sizeof(Chunk); }

  /// Every byte held: slots, bitmap and the chunk pool.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return slots_.capacity() * sizeof(List) + bits_.capacity() * sizeof(std::uint64_t) +
           pool_.capacity_bytes();
  }

 private:
  [[nodiscard]] std::uint64_t& word(std::uint64_t k) noexcept {
    return bits_[(k & (kSlots - 1)) >> 6];
  }
  [[nodiscard]] static std::uint64_t bit(std::uint64_t k) noexcept {
    return std::uint64_t{1} << (k & 63);
  }
  /// Entries in a non-empty list's head chunk.
  [[nodiscard]] static std::uint32_t head_fill(std::uint32_t count) noexcept {
    return ((count - 1) & (kChunkEntries - 1)) + 1;
  }
  /// Chunk c's entries; its first entry must have been constructed.
  [[nodiscard]] Entry* entries(std::uint32_t c) noexcept {
    return std::launder(reinterpret_cast<Entry*>(pool_.item(c).bytes));
  }
  void prefetch(std::uint32_t c) noexcept {
    const char* line = reinterpret_cast<const char*>(&pool_.item(c));
    for (std::size_t k = 0; k < sizeof(Chunk); k += 64) __builtin_prefetch(line + k);
  }

  Pool pool_;
  std::vector<List> slots_;
  std::vector<std::uint64_t> bits_;
  std::size_t live_chunks_ = 0;
};

}  // namespace continu::util
