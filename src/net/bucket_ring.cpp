#include "net/bucket_ring.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace continu::net {

BucketRing::BucketRing(SimTime grid_s)
    : grid_s_(grid_s), inv_grid_s_(grid_s > 0.0 ? 1.0 / grid_s : 0.0) {
  if (grid_s_ > 0.0) {
    ring_.resize(kSlots);
    occupied_.resize(kWords);
  }
}

BucketRing::~BucketRing() {
  while (ring_entries_ != 0) {
    Batch batch = detach_slot(next_occupied(cur_));
    discard(batch);
  }
  while (!overflow_.empty()) {
    Batch batch = detach_overflow(overflow_.begin());
    discard(batch);
  }
}

bool BucketRing::append_overflow(SimTime when, std::uint32_t to, bool filtered,
                                 DeliveryAction&& action) {
  std::uint64_t k = 0;
  const bool ahead = on_grid(when, k) && k >= cur_;
  if (ahead && ring_entries_ == 0) {
    // Beyond the span of an empty ring: move the span up to it.
    advance(k);
    return append(when, to, filtered, std::move(action));
  }
  auto [it, inserted] = overflow_.try_emplace(when);
  if (inserted) {
    it->second.ahead = ahead;
    if (ahead) ++overflow_ahead_;
  }
  push(it->second.slot.head, it->second.slot.count, to, filtered, std::move(action));
  return inserted;
}

bool BucketRing::earliest(SimTime& when) const {
  bool found = false;
  if (ring_entries_ != 0) {
    when = instant_of(next_occupied(cur_));
    found = true;
  }
  if (!overflow_.empty() && (!found || overflow_.begin()->first < when)) {
    when = overflow_.begin()->first;
    found = true;
  }
  return found;
}

BucketRing::Batch BucketRing::take(SimTime when) {
  std::uint64_t k = 0;
  if (ring_index(when, k) && ring_[k & kMask].count != 0) {
    Batch batch = detach_slot(k);
    // The cursor may move to k only when no ring instant lies before it
    // (always so on the exact engine, which takes in time order).
    if (k != cur_ && next_occupied(cur_) >= k) advance(k);
    return batch;
  }
  const auto it = overflow_.find(when);
  if (it == overflow_.end()) {
    std::fprintf(stderr, "net::BucketRing: no pending bucket at instant %.17g s\n", when);
    std::abort();
  }
  return detach_overflow(it);
}

void BucketRing::take_through(SimTime limit, std::vector<Batch>& out) {
  // Merge the ring's occupied slots and the overflow's front, both in
  // time order; an instant lives in only one of them.
  const std::uint64_t end = cur_ + kSlots;
  std::uint64_t k = ring_entries_ != 0 ? next_occupied(cur_) : end;
  std::uint64_t first = end;
  for (;;) {
    const bool ring_due = k < end && instant_of(k) <= limit;
    const bool over_due = !overflow_.empty() && overflow_.begin()->first <= limit;
    if (!ring_due && !over_due) break;
    if (ring_due && (!over_due || instant_of(k) < overflow_.begin()->first)) {
      if (first == end) first = k;
      out.push_back(detach_slot(k));
      k = next_occupied(k + 1);
    } else {
      out.push_back(detach_overflow(overflow_.begin()));
    }
  }
  if (first != end && first != cur_) advance(first);
}

void BucketRing::entries(const Batch& batch, std::vector<HandoffEntry*>& out) {
  out.resize(batch.count);
  std::uint32_t left = batch.count;
  std::uint32_t c = batch.head;
  std::uint32_t fill = ((left - 1) & (kChunkEntries - 1)) + 1;
  while (left != 0) {
    Chunk& chunk = chunk_at(c);
    const std::uint32_t next = next_of(c);
    // Older chunks were written up to seconds ago: start the next one's
    // lines while this one is read.
    if (next != kNoChunk) __builtin_prefetch(&chunk_at(next));
    for (std::uint32_t i = fill; i-- > 0;) out[--left] = chunk.at(i);
    fill = kChunkEntries;
    c = next;
  }
}

void BucketRing::release(Batch& batch) noexcept {
  std::uint32_t c = batch.head;
  while (c != kNoChunk) {
    std::uint32_t& link = next_of(c);
    const std::uint32_t next = link;
    link = free_chunk_;
    free_chunk_ = c;
    --live_chunks_;
    c = next;
  }
  batch.head = kNoChunk;
  batch.count = 0;
}

void BucketRing::discard(Batch& batch) noexcept {
  std::uint32_t left = batch.count;
  std::uint32_t fill = ((left - 1) & (kChunkEntries - 1)) + 1;
  for (std::uint32_t c = batch.head; left != 0; c = next_of(c)) {
    Chunk& chunk = chunk_at(c);
    for (std::uint32_t i = 0; i < fill; ++i) chunk.at(i)->~HandoffEntry();
    left -= fill;
    fill = kChunkEntries;
  }
  release(batch);
}

std::size_t BucketRing::capacity_bytes() const noexcept {
  // A map node: the entry plus the red-black tree's four header words.
  constexpr std::size_t kNodeBytes = sizeof(std::pair<const SimTime, Overflow>) + 32;
  return ring_.capacity() * sizeof(Slot) + occupied_.capacity() * sizeof(std::uint64_t) +
         blocks_.capacity() * sizeof(blocks_[0]) + blocks_.size() * sizeof(Block) +
         overflow_.size() * kNodeBytes;
}

BucketRing::Batch BucketRing::detach_overflow(
    std::map<SimTime, Overflow>::iterator it) noexcept {
  const Batch batch{it->first, it->second.slot.head, it->second.slot.count};
  if (it->second.ahead) --overflow_ahead_;
  overflow_.erase(it);
  return batch;
}

BucketRing::Batch BucketRing::detach_slot(std::uint64_t k) noexcept {
  Slot& slot = ring_[k & kMask];
  const Batch batch{instant_of(k), slot.head, slot.count};
  ring_entries_ -= slot.count;
  slot = Slot{};
  occupied_[(k & kMask) >> 6] &= ~(std::uint64_t{1} << (k & 63));
  return batch;
}

std::uint64_t BucketRing::next_occupied(std::uint64_t from) const noexcept {
  const std::uint64_t end = cur_ + kSlots;
  while (from < end) {
    const std::size_t word = (from & kMask) >> 6;
    const std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
    if (bits != 0) {
      const std::uint64_t found =
          (from & ~std::uint64_t{63}) + static_cast<std::uint64_t>(__builtin_ctzll(bits));
      return found < end ? found : end;
    }
    from = (from | 63) + 1;
  }
  return end;
}

void BucketRing::advance(std::uint64_t k) {
  cur_ = k;
  if (overflow_ahead_ == 0) return;
  // Instants filed beyond the span that now fall inside it move into
  // their (necessarily empty) slots, chunks and all.
  auto it = overflow_.lower_bound(instant_of(cur_));
  while (it != overflow_.end() && overflow_ahead_ != 0) {
    std::uint64_t index = 0;
    if (!it->second.ahead) {
      ++it;
      continue;
    }
    (void)on_grid(it->first, index);
    if (index - cur_ >= kSlots) break;
    Slot& slot = ring_[index & kMask];
    slot = it->second.slot;
    occupied_[(index & kMask) >> 6] |= std::uint64_t{1} << (index & 63);
    ring_entries_ += slot.count;
    --overflow_ahead_;
    it = overflow_.erase(it);
  }
}

std::uint32_t BucketRing::grow_pool() {
  if ((chunk_count_ & (kChunksPerBlock - 1)) == 0) {
    // Default-initialized: the pages stay untouched until used.
    blocks_.push_back(std::unique_ptr<Block>(new Block));
  }
  return chunk_count_++;
}

}  // namespace continu::net
