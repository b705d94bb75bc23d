// Session rounds: the four-phase batch pipeline (see session.hpp).

#include <algorithm>

#include "core/buffer_map.hpp"
#include "core/session.hpp"
#include "net/message.hpp"
#include "obs/counters.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/trace_sink.hpp"

namespace continu::core {

namespace {

using net::MessageType;

/// Node-round phase jitter range within a period (the metrics sampler
/// runs at exact period boundaries, after every node has ticked).
constexpr double kPhaseLo = 0.05;
constexpr double kPhaseHi = 0.90;
/// Round phases are drawn from this many evenly spaced buckets across
/// [kPhaseLo, kPhaseHi), so nodes in one bucket tick at one instant and
/// form a RoundScheduler batch the executor can shard.
constexpr unsigned kRoundPhaseBuckets = 32;
/// In-flight transfers older than this many periods are abandoned.
constexpr double kTransferTimeoutPeriods = 3.0;
/// Cap on candidates evaluated per scheduling round (safety bound).
constexpr std::size_t kMaxCandidates = 400;
/// Runway (segments) a joiner accumulates before following its
/// neighbors' play steps — about one scheduling round of pulls.
constexpr std::size_t kJoinStartSegments = 10;
/// Cushion a joiner anchors behind its neighbors' play point.
constexpr std::size_t kJoinBackstep = 20;
/// Membership piggyback riding each buffer-map exchange: how many
/// peer-table entries travel, and the wire size of one entry. Consumed
/// by BOTH halves of the exchange — the forked receive side picks
/// kPiggybackEntries entries, the join's bulk charge prices them — so
/// they must stay a single definition.
constexpr int kPiggybackEntries = 2;
constexpr Bits kMembershipEntryBits = 48;
/// Look-ahead horizon (segments past the play point) the scheduler
/// pulls toward. Bounds the elastic window-filling demand — without it,
/// every young node pulls its entire 60 s buffer at full rate and the
/// aggregate demand under churn permanently exceeds capacity.
constexpr SegmentId kLookaheadSegments = 150;
/// Round-plan items per fork/join shard (fixed, like kSweepGrain).
constexpr std::size_t kPlanGrain = 32;

/// The retry/backoff + blacklist schedule every hardened session runs.
constexpr fault::RetryPolicy kRetryPolicy{};

/// A neighbor as plan_scheduling sees it.
struct NeighborView {
  std::size_t index;
  NodeId id;
  double rate;
  SegmentId newest;
  const util::BitWindow* window;  ///< the neighbor's buffer presence bits
};

/// Buffers of the round path (playback and scheduling). Each use clears
/// and refills them, so one set per thread serves every session and
/// shard that thread runs, and the round path stops allocating once
/// they have grown to the largest round seen; a set per shard would
/// cost resident memory per shard for no gain.
struct RoundScratch {
  /// do_playback: the segments that came due.
  std::vector<DueSegment> due;
  /// plan_scheduling: the usable neighbors, then every candidate's
  /// supplier offers, candidate after candidate (request.candidates
  /// view runs of it), and the scheduler's own buffers.
  std::vector<NeighborView> views;
  /// plan_scheduling: each view's presence word of the 64 ids scanned.
  std::vector<std::uint64_t> view_words;
  std::vector<SupplierOffer> offers;
  ScheduleRequest request;
  ScheduleWorkspace work;
};

RoundScratch& round_scratch() {
  thread_local RoundScratch scratch;
  return scratch;
}

}  // namespace

SimTime Session::round_phase(util::Rng& rng) const {
  const double tau = kSchedulingPeriod;
  const SimTime now = sim_.now();
  // Nodes sharing a bucket tick at the SAME instant, so RoundScheduler
  // batches them and the executor has something to shard. Buckets span
  // [kPhaseLo, kPhaseHi) — strictly before the churn phase (0.95 tau)
  // and the sampler (period boundary), so a batch is never a mix of
  // node rounds and reserved ticks.
  const auto bucket = static_cast<double>(rng.next_below(kRoundPhaseBuckets));
  SimTime tick =
      (kPhaseLo + (kPhaseHi - kPhaseLo) * bucket / kRoundPhaseBuckets) * tau;
  // A joiner must land on its bucket's ABSOLUTE grid, advanced with the
  // exact accumulation arithmetic the cohort's recurring ticks use
  // (next = fired + period) — phase + k*tau computed directly can miss
  // the cohort's instant by an ulp, which would fragment batches into
  // per-churn-tick singletons and serialize the plan phase under churn.
  while (tick <= now) tick += tau;
  return tick;
}

void Session::on_round_batch(const std::vector<std::size_t>& users) {
  // Reserved ticks ride phases of their own (phase construction keeps
  // them out of node-round instants). If a config ever mixes them into
  // one batch, the reserved ticks run first, in batch order, and the
  // node rounds follow as one batch of their own — still deterministic,
  // batch content does not depend on thread count. Mixing is counted
  // so an accidental phase-layout change cannot go unnoticed (a test
  // pins the counter at zero).
  const auto is_reserved = [](std::size_t user) {
    return user == kSampleTickUser || user == kChurnTickUser;
  };
  if (std::none_of(users.begin(), users.end(), is_reserved)) {
    run_round_batch(users);
    return;
  }
  std::vector<std::size_t> node_rounds;
  for (const std::size_t user : users) {
    if (user == kSampleTickUser) {
      on_sample_tick();
    } else if (user == kChurnTickUser) {
      on_churn_tick();
    } else {
      node_rounds.push_back(user);
    }
  }
  if (node_rounds.empty()) return;
  ++stats_.mixed_batch_fallbacks;
  run_round_batch(node_rounds);
}

void Session::run_round_batch(const std::vector<std::size_t>& users) {
  // Shard structure depends only on (batch size, kPlanGrain), so
  // per-shard buffers merge in an order no thread count can change.
  const std::size_t n = users.size();
  const std::size_t shards =
      sim::parallel::ParallelExecutor::shard_count(n, kPlanGrain);
  if (shard_deferred_.size() < shards) shard_deferred_.resize(shards);
  if (prepare_shards_.size() < shards) prepare_shards_.resize(shards);
  obs_ensure_shards(shards);
  obs::PhaseProfiler* const prof = profiler_.get();

  // Phase 1a — prepare-local: forked. Per-node own-state maintenance;
  // cross-node reads are limited to batch-frozen state (see the
  // data-ownership contract in session.hpp). Deferred records land in
  // the per-shard PrepareShard scratch.
  shard_stats_.assign(shards, SessionStats{});
  for (std::size_t s = 0; s < shards; ++s) prepare_shards_[s].reset();
  exec_.for_shards(obs::Phase::kPrepareLocal, n, kPlanGrain,
                   [this, &users](std::size_t s, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       round_prepare_local(users[i], shard_stats_[s],
                                           prepare_shards_[s], s);
                     }
                     if (obs_counters_ != nullptr) {
                       obs_counters_->add(s, ctr_prepare_nodes_, end - begin);
                     }
                   });
  // Join — settle in shard order: stats deltas, then each shard's
  // deferred rate decays / playback starts / wire charges.
  sim::parallel::reduce_in_order(shard_stats_, stats_);
  for (std::size_t s = 0; s < shards; ++s) apply_prepare_shard(prepare_shards_[s]);

  // Phase 1b — prepare-link: serial, batch (= add) order. Neighbor
  // repair rewires the overlay reciprocally, so it can never fork. It
  // runs after the prepare-local join: this round's playback misses
  // (the "struggling" signal) and piggybacked overhearing are already
  // in place, and the forked phase could not have observed a
  // half-repaired mesh.
  const std::uint64_t link_t0 =
      prof != nullptr ? sim::parallel::monotonic_ns() : 0;
  for (const std::size_t user : users) {
    if (nodes_[user]->alive()) repair_neighbors(*nodes_[user]);
  }
  if (prof != nullptr) {
    prof->record_serial(obs::Phase::kPrepareLink, link_t0,
                        sim::parallel::monotonic_ns());
  }

  // Phase 2 — plan: forked across shards.
  // Fresh plans, not reassigned ones: a reassigned plan would keep its
  // assignment buffer, and a buffer per batch slot stays resident.
  plans_.clear();
  plans_.resize(n);
  shard_stats_.assign(shards, SessionStats{});
  exec_.for_shards(obs::Phase::kPlan, n, kPlanGrain,
                   [this, &users](std::size_t s, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       round_plan(users[i], plans_[i], shard_stats_[s],
                                  shard_deferred_[s]);
                     }
                   });

  // Join — ordered reduction: stats deltas, then each shard's deferred
  // operations (event seq numbers come out exactly as serial
  // execution's).
  sim::parallel::reduce_in_order(shard_stats_, stats_);
  for (std::size_t s = 0; s < shards; ++s) {
    for (sim::EventAction& op : shard_deferred_[s]) op.consume();
    shard_deferred_[s].clear();
  }

  // Phase 3 — commit: serial, batch order.
  const std::uint64_t commit_t0 =
      prof != nullptr ? sim::parallel::monotonic_ns() : 0;
  for (std::size_t i = 0; i < n; ++i) round_commit(users[i], plans_[i]);
  if (prof != nullptr) {
    prof->record_serial(obs::Phase::kCommit, commit_t0,
                        sim::parallel::monotonic_ns());
  }
}

void Session::round_prepare_local(std::size_t index, SessionStats& stats,
                                  PrepareShard& shard, std::size_t obs_shard) {
  Node& node = *nodes_[index];
  if (!node.alive()) return;
  const SimTime now = sim_.now();
  const double tau = kSchedulingPeriod;
  // Per-tick RNG stream: every draw a round makes comes from
  // (session seed, tick time, node id), never from the shared session
  // generator — rounds are RNG-independent of each other, which is what
  // lets the forked phases run without reproducing a shared draw order.
  util::Rng tick_rng = util::Rng::for_tick(config_.seed, now, node.id());

  node.neighbors().fold_supply();

  // Abandon transfers whose supplier went silent. The sweep erases only
  // this node's own tables; the decay of each silent supplier's rate
  // estimate is recorded per shard and applied at the join — the
  // deferred list keeps the forked sweep's write set own-state and
  // makes the decay application order explicit (shard order = batch
  // order), independent of the thread count.
  const auto cutoff = now - kTransferTimeoutPeriods * tau;
  const auto index32 = static_cast<std::uint32_t>(index);
  const auto on_failed = [&shard, index32](NodeId supplier) {
    shard.rate_decays.emplace_back(index32, supplier);
  };
  // Hardened, the same one-pass sweep also records retry-backoff and
  // supplier-strike state — all own-node writes, so the fork-safety
  // argument is unchanged; the tallies ride the per-shard stats.
  Node::SweepHardening hard;
  stats.transfer_timeouts += node.sweep_timeouts(
      cutoff, on_failed, hardened_ ? &kRetryPolicy : nullptr, now, &hard);
  stats.retry_backoffs += hard.backoffs;
  stats.suppliers_blacklisted += hard.blacklists;
  if (trace_ != nullptr && (hard.backoffs > 0 || hard.blacklists > 0)) {
    obs::TraceEvent event;
    event.time = now;
    event.kind = obs::TraceEventKind::kRetryBackoff;
    event.node = index32;
    event.a = hard.backoffs;
    event.b = hard.blacklists;
    trace_->record(obs_shard, event);
  }

  if (node.buffer().started()) {
    do_playback(node);
  } else if (!node.is_source()) {
    // The startup decision reads peers' started() flags, so it decides
    // from the batch-start state and the start itself applies at the
    // join — which is exactly what keeps those flags frozen while
    // other shards read them.
    if (const auto anchor = plan_playback_start(node)) {
      shard.playback_starts.emplace_back(index32, *anchor);
    }
  }

  // Compact bookkeeping at the round's in-flight LOW point (after the
  // timeout sweep, before this round books a new burst) so capacity
  // tracks the standing backlog, not the booking spike. The window head
  // bounds the hardening tables: retry records behind it are moot.
  node.compact_bookkeeping(now, node.buffer().window_head());

  exchange_buffer_maps(node, tick_rng, shard);
}

void Session::apply_prepare_shard(PrepareShard& shard) {
  for (const auto& [index, supplier] : shard.rate_decays) {
    nodes_[index]->rates().on_transfer_failed(supplier);
  }
  const SimTime now = sim_.now();
  for (const auto& [index, anchor] : shard.playback_starts) {
    nodes_[index]->buffer().start_playback(anchor, now);
  }
  // The emission side of the exchange: wire costs tallied in the fork,
  // charged here in bulk — bit-identical to per-message charging
  // (TrafficAccount keeps per-class sums of bits and message counts).
  network_.charge_only_bulk(MessageType::kBufferMap,
                            buffer_map_bits(kBufferCapacity),
                            shard.buffer_map_messages);
  network_.charge_only_bulk(MessageType::kJoinNotify,
                            kPiggybackEntries * kMembershipEntryBits,
                            shard.membership_messages);
}

void Session::round_plan(std::size_t index, RoundPlan& plan, SessionStats& stats,
                         std::vector<sim::EventAction>& deferred) {
  Node& node = *nodes_[index];
  // Reads only state that is STABLE for the whole batch: this node's
  // own post-prepare state and other nodes' buffers/liveness (mutated
  // only by transfer deliveries and churn, which are separate events).
  // All writes go to the per-shard `stats`/`deferred` buffers and to
  // `plan`, which lives in a slot only this shard touches.
  if (!node.alive() || node.is_source()) return;

  std::uint64_t seen = 0;
  plan.scheduled = plan_scheduling(node, /*budget_fraction=*/1.0, plan.sched, seen);
  stats.candidates_seen += seen;
  if (plan.scheduled) {
    stats.candidates_unassigned += plan.sched.unassigned;
    stats.segments_booked += plan.sched.assignments.size();
  }

  if (config_.scheduler == SchedulerKind::kContinuStreaming) {
    PrefetchPlan prefetch =
        plan_prefetch(node, plan.scheduled ? &plan.sched : nullptr);
    if (prefetch.suppressed) ++stats.prefetch_suppressed;
    plan.prefetch = std::move(prefetch.launch);
  }

  // Mid-round top-up: re-book whatever was refused or newly became
  // available. (The scheduling PERIOD governs buffer-map exchange;
  // failed pulls retry as soon as the refusal is known, as any
  // TCP-based puller would.) Uses a reduced quota so the round's
  // total stays near I*tau. Deferred to the join: a worker shard must
  // not touch the queue (sequence numbers are global mutable state).
  const SimTime when = sim_.now() + 0.5 * kSchedulingPeriod;
  deferred.emplace_back([this, index, when] {
    sim_.schedule_at(when, [this, index] {
      Node& retry = *nodes_[index];
      if (retry.alive() && !retry.is_source()) {
        run_scheduling(retry, /*budget_fraction=*/0.4);
      }
    });
  });
}

void Session::round_commit(std::size_t index, RoundPlan& plan) {
  Node& node = *nodes_[index];
  if (!node.alive()) return;

  if (!node.is_source()) {
    if (plan.scheduled) commit_scheduling(node, plan.sched);
    for (const SegmentId id : plan.prefetch) {
      launch_prefetch(index, id);
    }
  }

  refresh_dht_peers(node);

  // Garbage-collect state that can no longer matter. (Bookkeeping
  // compaction runs in round_prepare, at the in-flight low point.)
  if (emitted_ > static_cast<SegmentId>(kBufferCapacity)) {
    node.backup().expire_before(emitted_ - static_cast<SegmentId>(kBufferCapacity));
  }
  node.expire_tags(node.buffer().window_head());
}

void Session::do_playback(Node& node) {
  std::vector<DueSegment>& due = round_scratch().due;
  due.clear();
  node.buffer().advance_playback(sim_.now(), due);
  for (const auto& segment : due) {
    if (segment.present) {
      ++node.round_stats().played;
    } else {
      ++node.round_stats().missed;
    }
  }
}

std::optional<SegmentId> Session::plan_playback_start(const Node& node) const {
  // Two-tier startup.
  //
  // Follow rule (paper Section 5.2): a node whose neighbors already
  // play "starts its media playback by following its neighbors'
  // current steps". It anchors a startup cushion BEHIND the
  // neighborhood play point (those segments are still in every
  // partner's arrival-FIFO buffer, so they fill at full speed) and
  // starts after a one-round runway.
  //
  // Cold start: with no playing neighbor (the t=0 population), a node
  // accumulates the full startup window first, anchored at the oldest
  // segment it obtained — this self-selects a safe depth behind the
  // live edge.
  //
  // Runs inside the forked prepare-local phase: peers' started() flags
  // are read live but FROZEN for the batch (every start decided this
  // batch applies at the join), so a start propagates to followers one
  // round later regardless of batch position or thread count.
  const bool following = [&] {
    for (const auto& neighbor : node.neighbors().all()) {
      const auto idx = index_of(neighbor.id);
      if (idx.has_value() && nodes_[*idx]->buffer().started()) return true;
    }
    return false;
  }();
  const std::size_t runway =
      following ? kJoinStartSegments : kStartupSegments;
  if (!node.buffer().startup_ready(runway)) return std::nullopt;
  const auto newest = node.buffer().newest();
  if (!newest.has_value()) return std::nullopt;
  // Anchor so a FULL startup cushion lies ahead of the play point —
  // unconditionally. Anchoring at the oldest held segment is
  // luck-dependent (top-heavy early pulls put it near the live edge and
  // lock the node — and every follower downstream — into a
  // hand-to-mouth regime). Anchoring below the oldest held segment is
  // fine: partners still hold that recent history in their
  // arrival-FIFO buffers, and the urgency channel fetches it first.
  const SegmentId anchor =
      std::max({node.buffer().window_head(),
                *newest - static_cast<SegmentId>(kStartupSegments),
                SegmentId{0}});
  return anchor;
}

void Session::exchange_buffer_maps(Node& node, util::Rng& tick_rng,
                                   PrepareShard& shard) {
  // One 620-bit buffer map to each alive neighbor per round. The
  // content travels as a charge-only message: the scheduler reads the
  // neighbor's availability directly (fresh map), which is equivalent
  // at tau >> latency and avoids one simulator event per map.
  //
  // This path runs once per (node, neighbor) pair per period — at 100k
  // nodes it is the densest loop in the session — so it runs inside
  // the FORKED prepare-local phase, allocation-free at steady state.
  // Own-state writes only: the piggyback writes this node's own
  // overheard list, and the wire costs are tallied into `shard` (the
  // emission side, bulk-charged serially at the join). The peer's
  // neighbor vector is read in place under the batch-frozen-membership
  // contract: repair runs in prepare-link, and the only concurrent
  // writes to those entries (a shard folding the PEER's supply rates)
  // touch the float rate fields, never the ids the piggyback reads.
  const SimTime now = sim_.now();
  for (const auto& neighbor : node.neighbors().all()) {
    const auto idx = index_of(neighbor.id);
    if (!idx.has_value()) continue;
    ++shard.buffer_map_messages;
    // Membership piggyback: each exchange also carries a couple of
    // peer-table entries (the membership gossip of Ganesh et al. that
    // CoolStreaming builds on). This keeps the Overheard list fresh so
    // the "supplied little data" replacement policy can actually find
    // better partners. Charged as maintenance — the paper's control
    // overhead counts only the 620 buffer-map bits.
    const Node& peer = *nodes_[*idx];
    ++shard.membership_messages;
    const auto& peer_neighbors = peer.neighbors().all();
    for (int pick = 0; pick < kPiggybackEntries && !peer_neighbors.empty();
         ++pick) {
      const NodeId heard =
          peer_neighbors[tick_rng.next_below(peer_neighbors.size())].id;
      if (heard == node.id()) continue;
      const auto hidx = index_of(heard);
      if (!hidx.has_value()) continue;
      node.overheard().hear(
          heard, network_.latency().latency_ms(node.session_index(), *hidx), now);
    }
  }
}

bool Session::plan_scheduling(const Node& node, double budget_fraction,
                              ScheduleResult& out, std::uint64_t& seen) const {
  RoundScratch& scratch = round_scratch();
  const SimTime now = sim_.now();
  const double tau = kSchedulingPeriod;

  // Collect alive neighbor views.
  auto& views = scratch.views;
  views.clear();
  for (const overlay::Neighbor& neighbor : node.neighbors().all()) {
    const NodeId id = neighbor.id;
    const auto idx = index_of(id);
    if (!idx.has_value()) continue;
    // Supplier failover: a blacklisted neighbor's offers are ignored
    // until its window decays, so demand routes around a peer whose
    // transfers keep timing out (lossy link or silently dead).
    if (hardened_ && node.supplier_blacklisted(id, now, kRetryPolicy)) continue;
    const Node& peer = *nodes_[*idx];
    const auto newest = peer.buffer().newest();
    if (!newest.has_value()) continue;
    views.push_back(NeighborView{*idx, id, node.rates().estimate(id), *newest,
                                 &peer.buffer().window()});
  }
  if (views.empty()) return false;

  // Candidate range: from just past the play point (or the neighbors'
  // oldest coverage before playback starts) to the freshest segment any
  // neighbor holds.
  const bool started = node.buffer().started();
  SegmentId lo;
  if (started) {
    lo = node.buffer().play_point(now) + 1;
  } else {
    // Join rule: request "the data segments being played or will be
    // played by its neighbors" — anchor one startup cushion BEHIND the
    // most conservative started neighbor's play point (the partners
    // still hold that history, so the cushion fills at full speed).
    // Before anyone plays, fall back to the oldest content any
    // neighbor holds.
    SegmentId follow = kInvalidSegment;
    SegmentId oldest = views.front().newest;
    for (const auto& view : views) {
      const Node& peer = *nodes_[view.index];
      if (peer.buffer().started()) {
        const SegmentId p = peer.buffer().play_point(now) + 1;
        follow = (follow == kInvalidSegment) ? p : std::min(follow, p);
      }
      const auto low = peer.buffer().window().lowest();
      if (low.has_value()) oldest = std::min(oldest, *low);
    }
    if (follow != kInvalidSegment) {
      lo = std::max<SegmentId>(oldest,
                               follow - static_cast<SegmentId>(kJoinBackstep));
    } else {
      lo = oldest;
    }
  }
  lo = std::max<SegmentId>(lo, 0);
  SegmentId hi = lo;
  for (const auto& view : views) hi = std::max(hi, view.newest + 1);
  hi = std::min(hi, lo + static_cast<SegmentId>(kBufferCapacity));
  hi = std::min(hi, lo + kLookaheadSegments);

  // Build candidates: fresh segments = in some neighbor's buffer, not
  // ours, not in flight; ascending by id, offers in view order.
  ScheduleRequest& request = scratch.request;
  std::vector<SupplierOffer>& offers = scratch.offers;
  request.candidates.clear();
  offers.clear();
  request.period = tau;
  request.priority_inputs = PriorityInputs{};
  request.priority_inputs.play_point =
      started ? node.buffer().play_point(now) : kInvalidSegment;
  request.priority_inputs.playback_rate = config_.playback_rate;
  request.priority_inputs.buffer_capacity = kBufferCapacity;

  // Inbound quota (Algorithm 1 line 1): min(m, I*tau). The downlink
  // queue model enforces actual absorption; transfer_pending prevents
  // double-booking, so no further subtraction is needed here.
  const double budget_raw = node.inbound_rate() * tau * budget_fraction;
  if (budget_raw < 1.0) return false;
  request.inbound_budget = static_cast<std::size_t>(budget_raw);
  // No per-supplier cap: Algorithm 1's queue-time term is the paper's
  // own limiter, and the frontier (e.g. the source's neighbors pulling
  // the live edge) must be able to use a supplier's full rate.
  request.per_supplier_cap = 0;
  request.rank_jitter = 0.8;
  request.jitter_seed = node.id();

  // The scan runs 64 ids at a time: the OR of the neighbors' presence
  // words, less our own, names every id some neighbor holds and we do
  // not, so only those ids pay the hash probes below.
  constexpr SegmentId kWordIds = 64;
  std::vector<std::uint64_t>& view_words = scratch.view_words;
  view_words.resize(views.size());
  const util::BitWindow& own = node.buffer().window();
  for (SegmentId base = lo;
       base < hi && request.candidates.size() < kMaxCandidates; base += kWordIds) {
    std::uint64_t fresh = 0;
    for (std::size_t v = 0; v < views.size(); ++v) {
      view_words[v] = views[v].window->word_at(base);
      fresh |= view_words[v];
    }
    fresh &= ~own.word_at(base);
    if (hi - base < kWordIds) fresh &= (std::uint64_t{1} << (hi - base)) - 1;
    while (fresh != 0) {
      const int bit = __builtin_ctzll(fresh);
      fresh &= fresh - 1;
      const SegmentId id = base + bit;
      if (node.transfer_pending(id)) continue;
      // Bounded retry: a timed-out segment sits out its backoff window
      // before it may be re-requested.
      if (hardened_ && node.retry_blocked(id, now)) continue;
      const std::size_t first = offers.size();
      for (std::size_t v = 0; v < views.size(); ++v) {
        if (((view_words[v] >> bit) & 1U) == 0) continue;
        const NeighborView& view = views[v];
        SupplierOffer offer;
        offer.supplier = view.id;
        offer.rate = view.rate;
        const auto distance = static_cast<std::size_t>(
            std::max<SegmentId>(view.newest - id + 1, 1));
        offer.buffer_position = std::min(distance, kBufferCapacity);
        offers.push_back(offer);
      }
      // The span is bound below, once the flat array stops growing.
      request.candidates.push_back(
          Candidate{id, OfferSpan(nullptr, offers.size() - first)});
      if (request.candidates.size() >= kMaxCandidates) break;
    }
  }
  if (request.candidates.empty()) return false;
  seen = request.candidates.size();
  const SupplierOffer* next = offers.data();
  for (Candidate& candidate : request.candidates) {
    candidate.offers = OfferSpan(next, candidate.offers.size());
    next += candidate.offers.size();
  }

  // GridMedia's pull half uses the same rarest-first rule as the
  // CoolStreaming baseline; pushes handle the fresh edge.
  if (config_.scheduler == SchedulerKind::kContinuStreaming) {
    schedule_continu(request, scratch.work, out);
  } else {
    schedule_coolstreaming(request, scratch.work, out);
  }
  return true;
}

}  // namespace continu::core
