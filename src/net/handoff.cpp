#include "net/handoff.hpp"

#include <stdexcept>
#include <utility>

namespace continu::net {

DeliveryLanes::DeliveryLanes() : lanes_(kLanes), meta_(kLanes) {}

std::uint32_t DeliveryLanes::Lane::acquire_slot() {
  if (free_head != kNoFree) {
    const std::uint32_t index = free_head;
    free_head = slot(index).next_free;
    return index;
  }
  if (slot_count > kSlotMask) {
    throw std::length_error("DeliveryLanes: hand-off slot pool exhausted");
  }
  if ((slot_count & (kBlockSize - 1)) == 0) {
    blocks.push_back(std::make_unique<Slot[]>(kBlockSize));
  }
  return slot_count++;
}

void DeliveryLanes::Lane::release_slot(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  s.entry.action.reset();
  s.next_free = free_head;
  free_head = index;
}

void DeliveryLanes::enqueue(std::uint32_t to, bool filtered, SimTime when,
                            std::uint64_t seq, DeliveryAction action) {
  const std::uint32_t lane_index = to & (kLanes - 1);
  Lane& lane = lanes_[lane_index];
  const std::uint32_t index = lane.acquire_slot();
  Slot& s = lane.slot(index);
  s.entry.to = to;
  s.entry.filtered = filtered;
  s.entry.action = std::move(action);
  const std::uint64_t key = (seq << kSlotBits) | index;
  lane.heap.push(when, key);
  ++size_;
  refresh_meta(lane_index);
}

void DeliveryLanes::refresh_meta(std::uint32_t lane_index) {
  const Lane& lane = lanes_[lane_index];
  if (lane.heap.empty()) {
    meta_.clear(lane_index);
  } else {
    const sim::QuadHeap::Entry top = lane.heap.top();
    meta_.update(lane_index, top.time, top.key >> kSlotBits);
  }
}

std::size_t DeliveryLanes::approx_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    bytes += lane.blocks.size() * kBlockSize * sizeof(Slot) +
             lane.heap.capacity_bytes() + lane.due.capacity() * sizeof(DueRef);
  }
  return bytes;
}

bool DeliveryLanes::next_time(SimTime& time) const {
  if (meta_.empty()) return false;
  time = meta_.top().time;
  return true;
}

void DeliveryLanes::collect_due_window(unsigned lane_index, SimTime limit) {
  Lane& lane = lanes_[lane_index];
  // Heap pops surface (time, key) ascending, so the due list comes out
  // (time, seq)-sorted — ready for the windowed k-way merge.
  while (!lane.heap.empty() && lane.heap.top().time <= limit) {
    const sim::QuadHeap::Entry top = lane.heap.top();
    lane.heap.pop();
    lane.due.push_back(DueRef{top.time, top.key >> kSlotBits,
                             static_cast<std::uint32_t>(top.key & kSlotMask)});
  }
}

std::size_t DeliveryLanes::merge_due_window(std::vector<HandoffEntry>& out,
                                            std::vector<SimTime>& times) {
  std::size_t active = 0;
  std::size_t total = 0;
  for (Lane& lane : lanes_) {
    if (!lane.due.empty()) {
      ++active;
      total += lane.due.size();
    }
  }
  if (active == 0) return 0;
  out.reserve(out.size() + total);
  times.reserve(times.size() + total);
  // K-way merge by (time, seq) over the (time, seq)-sorted per-lane
  // due lists: a linear scan over the lane heads per item. Entries at
  // one instant come out in global sequence order.
  std::vector<std::size_t> cursor(lanes_.size(), 0);
  for (std::size_t produced = 0; produced < total; ++produced) {
    std::size_t best_lane = lanes_.size();
    SimTime best_time = 0.0;
    std::uint64_t best_seq = 0;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const Lane& lane = lanes_[l];
      if (cursor[l] >= lane.due.size()) continue;
      const DueRef& ref = lane.due[cursor[l]];
      if (best_lane == lanes_.size() || ref.time < best_time ||
          (ref.time == best_time && ref.seq < best_seq)) {
        best_lane = l;
        best_time = ref.time;
        best_seq = ref.seq;
      }
    }
    Lane& lane = lanes_[best_lane];
    const DueRef ref = lane.due[cursor[best_lane]++];
    out.push_back(std::move(lane.slot(ref.slot).entry));
    times.push_back(ref.time);
    lane.release_slot(ref.slot);
  }
  size_ -= total;
  for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
    if (!lanes_[l].due.empty()) {
      lanes_[l].due.clear();
      refresh_meta(l);
    }
  }
  return active;
}

}  // namespace continu::net
