#include "core/stream_buffer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace continu::core {

StreamBuffer::StreamBuffer(std::size_t capacity, std::uint64_t playback_rate,
                           double stall_patience)
    : window_(capacity, /*head=*/0),
      playback_rate_(playback_rate),
      stall_patience_(stall_patience) {
  if (playback_rate == 0) {
    throw std::invalid_argument("StreamBuffer: playback rate must be positive");
  }
  if (capacity > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument("StreamBuffer: capacity must fit a 32-bit offset");
  }
  if (stall_patience < 0.0) {
    throw std::invalid_argument("StreamBuffer: negative stall patience");
  }
}

bool StreamBuffer::insert(SegmentId id) {
  if (id < window_.head()) return false;  // stale: already played/evicted
  if (id >= window_.end()) {
    // A segment beyond the window means the stream ran far ahead of
    // this node (it was offline or starved). Slide forward so the
    // window again covers the live edge; dropped ids were unplayable.
    window_.slide_to(id - static_cast<SegmentId>(window_.capacity()) + 1);
  }
  if (window_.test(id)) return false;
  window_.set(id);
  // After a slide, id sits at the window's last offset: above any offset
  // kept from before it, so the max also holds across one.
  newest_offset_ =
      std::max(newest_offset_, static_cast<std::int32_t>(id - window_.head()));
  return true;
}

std::optional<SegmentId> StreamBuffer::startup_position() const {
  return window_.lowest();
}

void StreamBuffer::start_playback(SegmentId segment, SimTime now) {
  if (started_) {
    throw std::logic_error("StreamBuffer: playback already started");
  }
  started_ = true;
  start_segment_ = segment;
  start_time_ = now;
  next_due_ = segment;
}

SegmentId StreamBuffer::play_point(SimTime now) const {
  if (!started_) return kInvalidSegment;
  const double elapsed = now - start_time_;
  if (elapsed < 0.0) return start_segment_ - 1;
  // Epsilon guards the floor against FP slop at exact deadlines
  // (e.g. 0.1 * 10 evaluating to 0.999...).
  const auto played = static_cast<SegmentId>(
      elapsed * static_cast<double>(playback_rate_) + 1e-9);
  return start_segment_ - 1 + played;
}

SimTime StreamBuffer::deadline(SegmentId id) const {
  if (!started_) {
    throw std::logic_error("StreamBuffer: deadline before playback start");
  }
  const auto offset = static_cast<double>(id - start_segment_ + 1);
  return start_time_ + offset / static_cast<double>(playback_rate_);
}

void StreamBuffer::advance_playback(SimTime now, std::vector<DueSegment>& due) {
  if (!started_) {
    throw std::logic_error("StreamBuffer: advance before playback start");
  }
  while (deadline(next_due_) <= now) {
    DueSegment d;
    d.id = next_due_;
    d.deadline = deadline(next_due_);
    d.present = window_.test(next_due_);
    if (!d.present) {
      // Rebuffer on ANY missing due segment, bounded by the patience:
      // the first time this segment comes due we start waiting; once it
      // has kept us waiting for stall_patience seconds it is skipped as
      // a miss and playback moves on.
      if (pending_stall_segment_ != next_due_) {
        pending_stall_segment_ = next_due_;
        pending_stall_since_ = d.deadline;
      }
      if (now - pending_stall_since_ < stall_patience_) {
        ++stalls_;
        d.stalled = true;
        due.push_back(d);
        start_time_ += now + 1.0 / static_cast<double>(playback_rate_) - d.deadline;
        break;
      }
      // Patience exhausted: skip it as a miss.
      pending_stall_segment_ = kInvalidSegment;
      due.push_back(d);
      ++next_due_;
      continue;
    }
    if (pending_stall_segment_ == next_due_) {
      pending_stall_segment_ = kInvalidSegment;
    }
    due.push_back(d);
    ++next_due_;
  }
  // NOTE: playback does NOT evict. The buffer is FIFO over ARRIVAL with
  // capacity B (insert slides the window as fresh segments land), so a
  // played segment keeps serving neighbors for up to B/p seconds — the
  // paper's case 2 ("playbacked ... and removed from B's buffer") only
  // occurs once capacity pushes it out.
}

}  // namespace continu::core
