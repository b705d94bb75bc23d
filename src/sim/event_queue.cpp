#include "sim/event_queue.hpp"

#include <stdexcept>

namespace continu::sim {

std::uint32_t EventQueue::grow_pool() {
  if (slot_count_ >= kNoFree) {
    throw std::length_error("EventQueue: pending-event slot pool exhausted");
  }
  if ((slot_count_ & (kBlockSize - 1)) == 0) {
    blocks_.push_back(std::make_unique<Block>());
  }
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
  id_of(index) = free_head_;
  free_head_ = index;
}

void EventQueue::drop_dead_top() const {
  while (!heap_.empty()) {
    const std::uint64_t id = heap_.top().key;
    if (id_of(id & kSlotMask) == id) return;  // live
    heap_.pop();
  }
}

bool EventQueue::acquire_due(SimTime horizon, DueEvent& out) {
  for (;;) {
    if (heap_.empty()) return false;
    const QuadHeap::Entry top = heap_.top();
    // A stale (cancelled) top beyond the horizon is left in place —
    // drop_dead_top() purges it whenever ordering queries need it.
    if (top.time > horizon) return false;
    const std::uint32_t index = top.key & kSlotMask;
    EventId& slot_id = id_of(index);
    // Start the slot-line fill now; the heap percolation below hides
    // most of its latency.
    __builtin_prefetch(&slot(index), 1);
    heap_.pop();
    if (slot_id != top.key) continue;  // cancelled or stale: discard lazily
    // De-register but do NOT free: the slot must not be reused while
    // its action runs, and a cancel() of the running id must no-op.
    slot_id = kInvalidEvent;
    --live_;
    out.time = top.time;
    out.slot_index = index;
    // Start fetching the NEXT event's slot a whole pop early — the
    // caller's action execution plus the next heap percolation give
    // the line a full miss latency of lead time.
    if (!heap_.empty()) {
      const auto next = static_cast<std::uint32_t>(heap_.top().key & kSlotMask);
      __builtin_prefetch(&slot(next), 1);
      __builtin_prefetch(&id_of(next), 1);
    }
    return true;
  }
}

void EventQueue::execute_and_release(const DueEvent& due) {
  // The slot returns to the freelist even if the action throws —
  // consume() likewise destroys the capture on the throw path, so a
  // throwing action cannot leak queue state.
  struct ReleaseGuard {
    EventQueue* queue;
    std::uint32_t index;
    ~ReleaseGuard() { queue->release_slot(index); }
  } guard{this, due.slot_index};
  // Slot blocks never move, so the reference stays valid even if the
  // action schedules new events (growing the pool or the heap).
  slot(due.slot_index).action.consume();
}

bool EventQueue::cancel(EventId id) noexcept {
  if (id == kInvalidEvent) return false;
  const std::uint32_t index = id & kSlotMask;
  if (index >= slot_count_) return false;
  if (id_of(index) != id) return false;
  slot(index).action.reset();
  release_slot(index);
  --live_;
  return true;
}

bool EventQueue::peek(SimTime& time, EventId& id) const {
  drop_dead_top();
  if (heap_.empty()) return false;
  const QuadHeap::Entry top = heap_.top();
  time = top.time;
  id = top.key;
  return true;
}

void EventQueue::collect_window(SimTime limit, std::vector<WindowRef>& out) {
  for (;;) {
    if (heap_.empty()) return;
    const QuadHeap::Entry top = heap_.top();
    if (top.time > limit) return;
    heap_.pop();
    // Dead tops (cancelled before collection) are reaped here exactly
    // like drop_dead_top(); live entries stay registered so a cancel
    // during the window's execution still lands.
    if (id_of(top.key & kSlotMask) != top.key) continue;
    out.push_back(WindowRef{top.time, top.key});
  }
}

bool EventQueue::execute_collected(const WindowRef& ref) {
  const std::uint32_t index = static_cast<std::uint32_t>(ref.id & kSlotMask);
  EventId& slot_id = id_of(index);
  if (slot_id != ref.id) return false;  // cancelled since collection
  // De-register then execute in place — same contract as
  // acquire_due + execute_and_release, minus the heap pop (collection
  // already removed the entry).
  slot_id = kInvalidEvent;
  --live_;
  DueEvent due;
  due.time = ref.time;
  due.slot_index = index;
  execute_and_release(due);
  return true;
}

}  // namespace continu::sim
