#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace continu::sim {

std::uint32_t EventQueue::grow_pool() {
  if (slot_count_ > kSlotMask) {
    throw std::length_error("EventQueue: pending-event slot pool exhausted");
  }
  if ((slot_count_ & (kBlockSize - 1)) == 0) {
    blocks_.push_back(std::make_unique<Slot[]>(kBlockSize));
  }
  return slot_count_++;
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoFree) {
    const std::uint32_t index = free_head_;
    free_head_ = slot(index).next_free;
    return index;
  }
  return grow_pool();
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  s.id = kInvalidEvent;
  s.next_free = free_head_;
  free_head_ = index;
}

EventId EventQueue::push(SimTime time, EventAction action) {
  return push_with_seq(next_seq_, time, std::move(action));
}

EventId EventQueue::push_with_seq(std::uint64_t seq, SimTime time,
                                  EventAction action) {
  if (!action) {
    throw std::invalid_argument("EventQueue: empty action");
  }
  const std::uint32_t index = acquire_slot();
  if (seq >= next_seq_) next_seq_ = seq + 1;
  const EventId id = (seq << kSlotBits) | index;
  Slot& s = slot(index);
  // Same publish-last ordering as emplace(): the slot id is set only
  // once the entry and action are in place, so a heap_ allocation
  // failure cannot leave a live-looking slot behind.
  s.action = std::move(action);
  heap_.push(time, id);
  s.id = id;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return id;
}

void EventQueue::push_all(std::vector<Deferred>& batch) {
  for (Deferred& deferred : batch) {
    (void)push(deferred.time, std::move(deferred.action));
  }
  batch.clear();
}

void EventQueue::drop_dead_top() const {
  while (!heap_.empty()) {
    const std::uint64_t id = heap_.top().key;
    if (slot(id & kSlotMask).id == id) return;  // live
    heap_.pop();
  }
}

Event EventQueue::take_top(QuadHeap::Entry top) {
  const std::uint32_t index = top.key & kSlotMask;
  Event out;
  out.time = top.time;
  out.id = top.key;
  out.action = std::move(slot(index).action);
  release_slot(index);
  --live_;
  heap_.pop();
  return out;
}

Event EventQueue::pop() {
  drop_dead_top();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  return take_top(heap_.top());
}

bool EventQueue::pop_until(SimTime horizon, Event& out) {
  drop_dead_top();
  if (heap_.empty() || heap_.top().time > horizon) return false;
  out = take_top(heap_.top());
  return true;
}

bool EventQueue::acquire_due(SimTime horizon, DueEvent& out) {
  for (;;) {
    if (heap_.empty()) return false;
    const QuadHeap::Entry top = heap_.top();
    // A stale (cancelled) top beyond the horizon is left in place —
    // drop_dead_top() purges it whenever ordering queries need it.
    if (top.time > horizon) return false;
    const std::uint32_t index = top.key & kSlotMask;
    Slot& s = slot(index);
    // Start the slot-line fill now; the heap percolation below hides
    // most of its latency.
    __builtin_prefetch(&s, 1);
    heap_.pop();
    if (s.id != top.key) continue;  // cancelled or stale: discard lazily
    // De-register but do NOT free: the slot must not be reused while
    // its action runs, and a cancel() of the running id must no-op.
    s.id = kInvalidEvent;
    --live_;
    out.time = top.time;
    out.slot_index = index;
    // Start fetching the NEXT event's slot a whole pop early — the
    // caller's action execution plus the next heap percolation give
    // the line a full miss latency of lead time.
    if (!heap_.empty()) {
      __builtin_prefetch(&slot(heap_.top().key & kSlotMask), 1);
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
    ~ReleaseGuard() {
      Slot& s = queue->slot(index);
      s.next_free = queue->free_head_;
      queue->free_head_ = index;
    }
  } guard{this, due.slot_index};
  // Slot blocks never move, so the reference stays valid even if the
  // action schedules new events (growing the pool or the heap).
  slot(due.slot_index).action.consume();
}

bool EventQueue::cancel(EventId id) noexcept {
  if (id == kInvalidEvent) return false;
  const std::uint32_t index = id & kSlotMask;
  if (index >= slot_count_) return false;
  Slot& s = slot(index);
  if (s.id != id) return false;
  s.action.reset();
  release_slot(index);
  --live_;
  return true;
}

SimTime EventQueue::next_time() const {
  drop_dead_top();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time on empty queue");
  }
  return heap_.top().time;
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
    if (slot(top.key & kSlotMask).id != top.key) continue;
    out.push_back(WindowRef{top.time, top.key});
  }
}

bool EventQueue::execute_collected(const WindowRef& ref) {
  const std::uint32_t index = static_cast<std::uint32_t>(ref.id & kSlotMask);
  Slot& s = slot(index);
  if (s.id != ref.id) return false;  // cancelled since collection
  // De-register then execute in place — same contract as
  // acquire_due + execute_and_release, minus the heap pop (collection
  // already removed the entry).
  s.id = kInvalidEvent;
  --live_;
  DueEvent due;
  due.time = ref.time;
  due.slot_index = index;
  execute_and_release(due);
  return true;
}

}  // namespace continu::sim
