#pragma once
// Data scheduling (paper Section 4.2, Algorithm 1) and the
// CoolStreaming rarest-first baseline, as pure functions over value
// inputs so both are unit-testable without a simulator.
//
// The underlying assignment problem (pick a supplier per segment to
// minimize deadline/replacement misses) is NP-hard — it contains
// parallel machine scheduling — so, as in the paper, a greedy pass
// assigns high-priority segments first, tracking a per-supplier queue
// time tau(j) and refusing assignments that cannot complete within the
// scheduling period.

#include <vector>

#include "core/priority.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace continu::core {

struct ScheduleRequest {
  /// Candidate segments (each viewing its supplier offers, which the
  /// caller keeps alive for the call).
  std::vector<Candidate> candidates;
  PriorityInputs priority_inputs;
  /// Scheduling period tau (seconds).
  double period = 1.0;
  /// Inbound budget for this period, in segments (I * tau, minus
  /// whatever in-flight transfers already claim).
  std::size_t inbound_budget = 0;
  /// Cap on segments booked from one supplier per round. Spreads load
  /// so concurrent requesters do not all converge on the one supplier
  /// with the best rate estimate. 0 means unlimited.
  std::size_t per_supplier_cap = 0;
  /// Relative rank jitter in [0, 1): scores are scaled by a
  /// deterministic per-(seed, segment) factor in [1 - j/2, 1 + j/2).
  /// Gossip depends on neighbors making DIFFERENT choices — without
  /// jitter, identically-ranked requesters pull identical prefixes and
  /// have nothing left to exchange with each other.
  double rank_jitter = 0.0;
  /// Seed for the jitter hash (typically the requester's node id).
  std::uint64_t jitter_seed = 0;
};

struct Assignment {
  SegmentId segment = kInvalidSegment;
  NodeId supplier = kInvalidNode;
  /// Expected completion time offset within the period (t_min in
  /// Algorithm 1): queueing at the supplier + transfer.
  double expected_time = 0.0;
  /// The priority that ranked this segment (for diagnostics/tests).
  double priority = 0.0;
};

struct ScheduleResult {
  std::vector<Assignment> assignments;
  /// Candidates considered but left unassigned (no supplier could
  /// deliver within the period, or budget exhausted).
  std::size_t unassigned = 0;
};

/// Buffers of one scheduling pass. A caller that keeps one across calls
/// schedules without allocating once the buffers have grown to the
/// largest request seen.
struct ScheduleWorkspace {
  struct Ranked {
    std::size_t index = 0;  ///< into request.candidates
    double score = 0.0;
  };
  std::vector<Ranked> ranked;
  /// Algorithm 1's queuing time tau(j) and the bookings per supplier.
  util::FlatMap<NodeId, double> queue_time;
  util::FlatMap<NodeId, std::size_t> booked;
};

/// ContinuStreaming's scheduler: rank by priority = max(urgency, rarity)
/// then run the greedy supplier-selection pass of Algorithm 1. `out` is
/// overwritten; its assignment buffer is reused.
void schedule_continu(const ScheduleRequest& request, ScheduleWorkspace& work,
                      ScheduleResult& out);

/// CoolStreaming baseline: rank by rarest-first (1/n_i, ties broken by
/// earlier deadline i.e. smaller id), same greedy supplier pass.
void schedule_coolstreaming(const ScheduleRequest& request, ScheduleWorkspace& work,
                            ScheduleResult& out);

}  // namespace continu::core
