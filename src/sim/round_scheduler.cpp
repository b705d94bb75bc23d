#include "sim/round_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace continu::sim {

RoundScheduler::RoundScheduler(Simulator& sim, SimTime period, BatchTick batch)
    : sim_(sim), period_(period), batch_tick_(std::move(batch)) {
  if (period_ <= 0.0) {
    throw std::invalid_argument("RoundScheduler: period must be positive");
  }
  if (!batch_tick_) {
    throw std::invalid_argument("RoundScheduler: empty batch tick");
  }
}

RoundScheduler::~RoundScheduler() {
  if (armed_ != kInvalidEvent) {
    sim_.cancel(armed_);
  }
}

void RoundScheduler::push_entry(Entry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), LaterEntry{});
}

RoundScheduler::Entry RoundScheduler::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), LaterEntry{});
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

void RoundScheduler::drop_dead() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    (void)pop_entry();
  }
}

RoundScheduler::Handle RoundScheduler::add(SimTime initial_delay, std::size_t user) {
  if (initial_delay < 0.0) initial_delay = 0.0;
  return add_at(sim_.now() + initial_delay, user);
}

RoundScheduler::Handle RoundScheduler::add_at(SimTime first_tick, std::size_t user) {
  std::uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    free_head_ = parts_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(parts_.size());
    parts_.push_back(Participant{});
  }
  Participant& p = parts_[index];
  p.user = user;
  p.alive = true;
  if (first_tick < sim_.now()) first_tick = sim_.now();
  push_entry(Entry{first_tick, next_seq_++, index, p.generation});
  ++active_;
  rearm();
  return Handle{index, p.generation};
}

bool RoundScheduler::remove(Handle handle) noexcept {
  if (handle.slot >= parts_.size()) return false;
  Participant& p = parts_[handle.slot];
  if (!p.alive || p.generation != handle.generation) return false;
  p.alive = false;
  ++p.generation;  // invalidates heap entries and outstanding handles
  p.next_free = free_head_;
  free_head_ = handle.slot;
  --active_;
  return true;
}

bool RoundScheduler::contains(Handle handle) const noexcept {
  if (handle.slot >= parts_.size()) return false;
  const Participant& p = parts_[handle.slot];
  return p.alive && p.generation == handle.generation;
}

void RoundScheduler::fire() {
  armed_ = kInvalidEvent;
  // Batch: every live tick due at exactly THIS instant, in add()
  // order (the heap tie-break). Anchoring on now() (not the heap
  // minimum) matters: if a remove() from outside a tick deleted the
  // participant the proxy was armed for, the surviving minimum lies in
  // the future and must NOT run early — the rearm below re-aims the
  // proxy instead. Survivors re-arm at next = fired + period, the exact
  // arithmetic PeriodicProcess uses (e.time == now for every entry the
  // proxy was armed for); a participant removed (or its slot recycled)
  // during the batch fails the generation compare and is not re-armed.
  const SimTime due = sim_.now();
  drop_dead();
  due_entries_.clear();
  due_users_.clear();
  while (!heap_.empty() && heap_.front().time <= due) {
    const Entry e = pop_entry();
    if (!entry_live(e)) continue;
    due_entries_.push_back(e);
    due_users_.push_back(parts_[e.slot].user);
  }
  if (!due_entries_.empty()) batch_tick_(due_users_);
  for (const Entry& e : due_entries_) {
    if (entry_live(e)) {
      push_entry(Entry{e.time + period_, next_seq_++, e.slot, e.generation});
    }
  }
  rearm();
}

void RoundScheduler::rearm() {
  drop_dead();
  if (heap_.empty()) {
    if (armed_ != kInvalidEvent) {
      sim_.cancel(armed_);
      armed_ = kInvalidEvent;
    }
    return;
  }
  const SimTime due = heap_.front().time;
  if (armed_ != kInvalidEvent) {
    if (armed_time_ == due) return;
    sim_.cancel(armed_);
  }
  armed_time_ = due;
  armed_ = sim_.schedule_at(due, [this] { fire(); });
}

}  // namespace continu::sim
