#pragma once
// Requesting-priority model (paper Section 4.2, equations 1-3).
//
//   R_i       = max_j R_ij                 best receiving rate offer
//   t_i       = (id_i - id_play)/p - 1/R_i expected slack before deadline
//   urgency_i = 1 / t_i                    (eq. 1)
//   rarity_i  = prod_j (p_ij / B)          (eq. 2)
//   priority  = max(urgency_i, rarity_i)   (eq. 3)
//
// p_ij is segment i's position in supplier j's FIFO buffer measured
// from the tail (the freshly-written end): segments far from the tail
// are close to eviction, so the product is the probability the segment
// is about to vanish from every supplier.
//
// The CoolStreaming baseline replaces all of this with the traditional
// rarest-first score 1/n_i.

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace continu::core {

/// One supplier's view of one candidate segment.
struct SupplierOffer {
  NodeId supplier = kInvalidNode;
  /// Estimated receiving rate from this supplier (R_ij, segments/s).
  double rate = 0.0;
  /// Distance of the segment from the supplier's buffer tail, in
  /// segments (1 = just written, B = about to be evicted).
  std::size_t buffer_position = 1;
};

/// A read-only run of supplier offers. A request's offers live in one
/// flat array owned by its caller, and each candidate views its own run
/// of it.
class OfferSpan {
 public:
  OfferSpan() = default;
  OfferSpan(const SupplierOffer* first, std::size_t count) noexcept
      : first_(first), count_(count) {}

  [[nodiscard]] const SupplierOffer* begin() const noexcept { return first_; }
  [[nodiscard]] const SupplierOffer* end() const noexcept { return first_ + count_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  const SupplierOffer* first_ = nullptr;
  std::size_t count_ = 0;
};

/// A candidate segment with every supplier that can offer it.
struct Candidate {
  SegmentId id = kInvalidSegment;
  OfferSpan offers;
};

struct PriorityInputs {
  /// id of the segment being played (id_play). kInvalidSegment when
  /// playback has not started — urgency is then defined as zero and
  /// rarity alone drives the ordering.
  SegmentId play_point = kInvalidSegment;
  /// Playback rate p (segments/s).
  std::uint64_t playback_rate = 10;
  /// Buffer capacity B.
  std::size_t buffer_capacity = 600;
  /// Weight of the classic rarest-first component (w/n_i) in the
  /// composite priority. Equation 3's urgency/rarity terms protect
  /// deadline-critical and dying segments but rank every fresh segment
  /// last, which starves the dissemination pipeline the paper takes for
  /// granted; the rarest-first term keeps few-holder (i.e. freshly
  /// emitted) segments flowing. 0 reproduces eq. 3 literally (see the
  /// ablation bench).
  double rarest_weight = 0.9;
};

/// Expected slack t_i; negative or zero means the deadline is already
/// unreachable at the offered rates.
[[nodiscard]] double expected_slack(const Candidate& candidate, const PriorityInputs& in);

/// urgency_i (eq. 1). Clamped to `max_urgency` when slack is <= 0 but
/// the segment is still ahead of the play point (we must still try).
[[nodiscard]] double urgency(const Candidate& candidate, const PriorityInputs& in,
                             double max_urgency = 100.0);

/// rarity_i (eq. 2).
[[nodiscard]] double rarity(const Candidate& candidate, const PriorityInputs& in);

/// Composite priority: max(urgency_i, rarity_i, w/n_i) — eq. 3
/// extended with the rarest-first pipeline term (see PriorityInputs).
[[nodiscard]] double priority(const Candidate& candidate, const PriorityInputs& in);

/// CoolStreaming's rarest-first score: 1/n_i.
[[nodiscard]] double rarest_first_score(const Candidate& candidate);

}  // namespace continu::core
