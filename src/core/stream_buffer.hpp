#pragma once
// Per-node stream buffer and playback state.
//
// The buffer is a FIFO sliding window of B consecutive segment ids
// anchored just ahead of the playback point: once a segment is played
// (or its deadline passes) it is removed — exactly the behaviour the
// paper relies on for its rarity computation and for case 2 of the
// motivating example ("d has been playbacked by B and removed from B's
// buffer").
//
// Playback: the node starts playing either (a) by following its
// neighbors' current play point (join rule, Section 5.2), or (b) after
// accumulating a startup window of segments. After start, segment s is
// due at deadline(s) = start_time + (s - start_segment + 1)/p.

#include <optional>
#include <vector>

#include "util/bitwindow.hpp"
#include "util/types.hpp"

namespace continu::core {

struct DueSegment {
  SegmentId id = kInvalidSegment;
  SimTime deadline = 0.0;
  bool present = false;
  /// True when this entry marks a rebuffering stall (nothing at or
  /// after the due point was held) rather than an isolated hole.
  bool stalled = false;
};

class StreamBuffer {
 public:
  /// `stall_patience` — how long playback waits for a missing due
  /// segment before skipping it (era players rebuffer rather than skip;
  /// waiting also deepens the node's position until it is sustainable).
  StreamBuffer(std::size_t capacity, std::uint64_t playback_rate,
               double stall_patience = 2.0);

  [[nodiscard]] std::size_t capacity() const noexcept { return window_.capacity(); }
  [[nodiscard]] std::uint64_t playback_rate() const noexcept { return playback_rate_; }

  // --- receiving ----------------------------------------------------------
  /// Inserts a received segment. Returns true iff the segment was fresh
  /// (inside the window and not already present). Segments behind the
  /// window head are stale and rejected.
  bool insert(SegmentId id);

  [[nodiscard]] bool has(SegmentId id) const noexcept { return window_.test(id); }
  [[nodiscard]] std::size_t held() const noexcept { return window_.count(); }

  /// Window bounds [head, end).
  [[nodiscard]] SegmentId window_head() const noexcept { return window_.head(); }
  [[nodiscard]] SegmentId window_end() const noexcept { return window_.end(); }

  /// Highest-id segment currently held (nullopt when empty).
  [[nodiscard]] std::optional<SegmentId> newest() const;

  [[nodiscard]] const util::BitWindow& window() const noexcept { return window_; }

  // --- playback -----------------------------------------------------------
  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Starts playback at `segment` with the first deadline one segment
  /// period after `now`.
  void start_playback(SegmentId segment, SimTime now);

  /// True when the startup accumulation rule is satisfied: the node
  /// holds at least `startup_segments` segments.
  [[nodiscard]] bool startup_ready(std::size_t startup_segments) const noexcept {
    return held() >= startup_segments;
  }

  /// First segment of the startup run (the oldest held segment);
  /// nullopt when empty.
  [[nodiscard]] std::optional<SegmentId> startup_position() const;

  /// The id currently being played: the last segment whose deadline has
  /// passed (id_play in the paper's equations). One less than the next
  /// due segment. Only meaningful after start.
  [[nodiscard]] SegmentId play_point(SimTime now) const;

  /// Deadline of segment `id` (requires started()).
  [[nodiscard]] SimTime deadline(SegmentId id) const;

  /// Pops every segment due in (last_play_time, now]: reports presence.
  /// Played segments stay in the window (eviction is FIFO by arrival,
  /// driven by insert()), so they remain available to neighbors.
  /// A missing due segment makes the player REBUFFER (the deadline
  /// schedule shifts forward; one stalled marker is reported and the
  /// round counts as discontinuous) for up to `stall_patience` seconds;
  /// only then is it skipped as a miss. Waiting is what real players
  /// do, and it lets a node sink to a depth its supply can sustain
  /// instead of being pinned at an infeasible distance behind the live
  /// edge. Appends the segments that came due to `due`. Requires
  /// started().
  void advance_playback(SimTime now, std::vector<DueSegment>& due);

  /// Number of rebuffering stalls so far.
  [[nodiscard]] std::uint64_t stall_count() const noexcept { return stalls_; }

 private:
  util::BitWindow window_;
  std::uint64_t playback_rate_;
  bool started_ = false;
  SegmentId start_segment_ = kInvalidSegment;
  SimTime start_time_ = 0.0;
  SegmentId next_due_ = kInvalidSegment;
  std::uint64_t stalls_ = 0;
  double stall_patience_;
  SegmentId pending_stall_segment_ = kInvalidSegment;
  SimTime pending_stall_since_ = 0.0;
};

}  // namespace continu::core
