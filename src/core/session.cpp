#include "core/session.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/continuity_model.hpp"
#include "core/buffer_map.hpp"
#include "dht/member_rank.hpp"
#include "net/message.hpp"
#include "obs/counters.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace_sink.hpp"
#include "trace/topology.hpp"
#include "util/flat_map.hpp"
#include "util/logging.hpp"

namespace continu::core {

SessionStats& operator+=(SessionStats& lhs, const SessionStats& rhs) noexcept {
  lhs.segments_emitted += rhs.segments_emitted;
  lhs.segments_delivered += rhs.segments_delivered;
  lhs.duplicate_deliveries += rhs.duplicate_deliveries;
  lhs.requests_sent += rhs.requests_sent;
  lhs.segments_booked += rhs.segments_booked;
  lhs.segments_refused += rhs.segments_refused;
  lhs.candidates_seen += rhs.candidates_seen;
  lhs.candidates_unassigned += rhs.candidates_unassigned;
  lhs.prefetch_launched += rhs.prefetch_launched;
  lhs.prefetch_succeeded += rhs.prefetch_succeeded;
  lhs.prefetch_no_replica += rhs.prefetch_no_replica;
  lhs.prefetch_suppressed += rhs.prefetch_suppressed;
  lhs.segments_pushed += rhs.segments_pushed;
  lhs.dht_route_messages += rhs.dht_route_messages;
  lhs.dht_route_failures += rhs.dht_route_failures;
  lhs.joins += rhs.joins;
  lhs.graceful_leaves += rhs.graceful_leaves;
  lhs.abrupt_leaves += rhs.abrupt_leaves;
  lhs.neighbor_replacements += rhs.neighbor_replacements;
  lhs.transfer_timeouts += rhs.transfer_timeouts;
  lhs.mixed_batch_fallbacks += rhs.mixed_batch_fallbacks;
  lhs.deliveries_dropped += rhs.deliveries_dropped;
  lhs.deliveries_lost += rhs.deliveries_lost;
  lhs.deliveries_partitioned += rhs.deliveries_partitioned;
  lhs.fault_crashes += rhs.fault_crashes;
  lhs.retry_backoffs += rhs.retry_backoffs;
  lhs.suppliers_blacklisted += rhs.suppliers_blacklisted;
  lhs.stall_episodes += rhs.stall_episodes;
  lhs.stall_rounds += rhs.stall_rounds;
  return lhs;
}

SessionStats operator+(SessionStats lhs, const SessionStats& rhs) noexcept {
  lhs += rhs;
  return lhs;
}

namespace {

using net::MessageType;
using net::TrafficClass;
using net::WireCosts;

/// Node-round phase jitter range within a period (the metrics sampler
/// runs at exact period boundaries, after every node has ticked).
constexpr double kPhaseLo = 0.05;
constexpr double kPhaseHi = 0.90;
/// Round phases are drawn from this many evenly spaced buckets across
/// [kPhaseLo, kPhaseHi), so nodes in one bucket tick at one instant and
/// form a RoundScheduler batch the executor can shard.
constexpr unsigned kRoundPhaseBuckets = 32;
/// Churn executes just before the period boundary.
constexpr double kChurnPhase = 0.95;
/// In-flight transfers older than this many periods are abandoned.
constexpr double kTransferTimeoutPeriods = 3.0;
/// A supplier accepts a transfer only if it completes within this many
/// periods of the request (Algorithm 1's premise is that transfers
/// finish inside the scheduling period; the paper's case 3 — "does not
/// have sufficient available bandwidth" — is a refusal). No standing
/// backlog accumulates across rounds.
constexpr double kServeWithinPeriods = 2.0;
/// How many RP-listed close nodes a joiner probes.
constexpr std::size_t kJoinProbeCount = 4;
/// Cap on candidates evaluated per scheduling round (safety bound).
constexpr std::size_t kMaxCandidates = 400;
/// Runway (segments) a joiner accumulates before following its
/// neighbors' play steps — about one scheduling round of pulls.
constexpr std::size_t kJoinStartSegments = 10;
/// Cushion a joiner anchors behind its neighbors' play point.
constexpr std::size_t kJoinBackstep = 20;
/// Leading request entries a supplier serves in the requester's
/// priority order (deadline-critical); the rest are served randomly.
constexpr std::size_t kUrgentHead = 4;
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

/// Fork/join shard grains. Fixed constants — NEVER derived from the
/// thread count — so the shard structure (and with it the merge order
/// of stats deltas, FP accumulations and deferred emissions) is
/// identical at every thread count.
constexpr std::size_t kPlanGrain = 32;    ///< round-plan items per shard
constexpr std::size_t kSweepGrain = 256;  ///< per-node sweep items per shard

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

/// Buffers of the round path (playback, neighbor repair, scheduling)
/// and of the churn sweep.
/// Each use clears and refills them, so one set per thread serves every
/// session and shard that thread runs, and the round path stops
/// allocating once they have grown to the largest round seen; a set
/// per shard would cost resident memory per shard for no gain.
struct RoundScratch {
  /// do_playback: the segments that came due.
  std::vector<DueSegment> due;
  /// plan_prefetch: the window's missing ids, and those of them
  /// predicted missed.
  std::vector<SegmentId> missing;
  std::vector<SegmentId> missed;
  /// drop_transfers_from_dead: the dead suppliers one node's in-flight
  /// table names, and the ids of one supplier's entries to erase.
  std::vector<NodeId> dead_hit;
  std::vector<SegmentId> dropped;
  /// repair_neighbors: ids a replacement may not be.
  std::vector<NodeId> excluded;
  /// plan_scheduling: the usable neighbors, then every candidate's
  /// supplier offers, candidate after candidate (request.candidates
  /// view runs of it), and the scheduler's own buffers.
  std::vector<NeighborView> views;
  /// plan_scheduling: each view's presence word of the 64 ids scanned.
  std::vector<std::uint64_t> view_words;
  std::vector<SupplierOffer> offers;
  ScheduleRequest request;
  ScheduleWorkspace work;
  /// run_scheduling's plan (a round's plan lives in its RoundPlan).
  ScheduleResult retry_result;
  /// commit_scheduling: the assignments booked, their suppliers in
  /// request order, and each supplier's pooled id list.
  std::vector<const Assignment*> booked;
  util::ReusableFlatSet<NodeId> suppliers;
  util::FlatMap<NodeId, std::uint32_t> list_of;
};

RoundScratch& round_scratch() {
  thread_local RoundScratch scratch;
  return scratch;
}

/// The urgent line's inputs (paper eqs. 4-9), derived from the trace
/// instead of set: t_hop is its mean one-hop latency (the paper calls
/// t_hop "an approximate estimation from our simulation experience")
/// and t_fetch uses its node count as n ("it does not need to be
/// accurate").
[[nodiscard]] UrgentLineConfig derive_urgent_line(std::uint64_t playback_rate,
                                                  const net::LatencyModel& latency,
                                                  std::size_t nodes) {
  UrgentLineConfig ul;
  ul.playback_rate = playback_rate;
  ul.buffer_capacity = kBufferCapacity;
  ul.scheduling_period = kSchedulingPeriod;
  ul.t_hop = latency.average_latency_ms() / 1000.0;
  ul.t_fetch = analysis::expected_fetch_time_s(static_cast<double>(nodes), ul.t_hop);
  return ul;
}

}  // namespace

std::uint64_t fit_id_space(std::uint64_t configured, std::size_t nodes) {
  std::uint64_t size = configured;
  while (static_cast<double>(nodes) > 0.85 * static_cast<double>(size)) {
    size *= 2;
  }
  return size;
}

Session::Session(const SystemConfig& config, const trace::TraceSnapshot& snapshot)
    : config_(config),
      space_(fit_id_space(kIdSpace, snapshot.node_count())),
      hop_cap_(static_cast<unsigned>(std::ceil(space_.hop_upper_bound())) + 2),
      // ParallelExecutor resolves 0 to hardware_concurrency itself.
      exec_(config.threads),
      sim_(engine_config()),
      network_(sim_, exec_,
               net::LatencyModel::from_trace(snapshot, /*floor_ms=*/5.0,
                                             config.latency_grid_ms),
               this),
      urgent_(derive_urgent_line(config.playback_rate, network_.latency(),
                                 snapshot.node_count())),
      hardened_(config.harden),
      directory_(space_),
      rp_(directory_, util::Rng(config.seed ^ 0x5250ULL)),
      churn_(config.churn, util::Rng(config.seed ^ 0xC4u)),
      rng_(config.seed),
      rounds_(sim_, kSchedulingPeriod,
              [this](const std::vector<std::size_t>& users) {
                on_round_batch(users);
              }),
      emission_(sim_, 1.0 / static_cast<double>(config.playback_rate),
                [this](const std::vector<std::size_t>&) { on_source_emit(); }) {
  // Compile the fault plan. An inert plan installs nothing, so the
  // zero-fault send path never even branches into the injector.
  if (config_.fault.active()) {
    fault_injector_ =
        std::make_unique<fault::FaultInjector>(config_.fault, config_.seed);
    network_.set_fault_injector(fault_injector_.get());
  }
  // Observability pillars (all optional). Wiring order matters only in
  // that the profiler's span sink must exist before the first fork.
  if (config_.obs.profile) {
    profiler_ = std::make_unique<obs::PhaseProfiler>();
    profiler_->set_threads(exec_.threads());
    exec_.set_observer(profiler_.get());
  }
  if (config_.obs.trace) {
    trace_ = std::make_unique<obs::TraceSink>(obs::kTraceCapacity,
                                              config_.obs.trace_node);
    if (profiler_ != nullptr) profiler_->set_span_sink(trace_.get());
  }
  if (config_.obs.counters) {
    obs_counters_ = std::make_unique<obs::CounterRegistry>();
    ctr_prepare_nodes_ = obs_counters_->declare("round.prepare_nodes");
    ctr_pull_requests_ = obs_counters_->declare("delivery.pull_requests");
    ctr_stall_transitions_ = obs_counters_->declare("sample.stall_transitions");
    obs_counters_->ensure_shards(1);
  }
  network_.set_trace(trace_.get());
  build_nodes(snapshot);
  assign_initial_neighbors(snapshot);
  populate_initial_dht();
  start_processes();
}

Session::~Session() = default;

sim::Simulator::LaxConfig Session::engine_config() const {
  sim::Simulator::LaxConfig lax;
  if (!config_.windowed_engine()) return lax;
  lax.skew_buckets = config_.queue_skew_buckets;
  lax.grid_s = config_.latency_grid_ms / 1000.0;
  return lax;
}

void Session::build_nodes(const trace::TraceSnapshot& snapshot) {
  const std::size_t n = snapshot.node_count();
  nodes_.reserve(n);
  round_handles_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = rp_.assign_id();
    double inbound = sample_rate(kInboundMin, kInboundMax, /*skewed=*/true);
    double outbound = sample_rate(kOutboundMin, kOutboundMax, /*skewed=*/false);
    if (i == 0) {
      // The source: zero inbound, much larger outbound.
      inbound = 0.0;
      outbound = kSourceOutbound;
    }
    auto node = std::make_unique<Node>(id, i, config_, urgent_, space_, inbound,
                                       outbound, snapshot.nodes()[i].ping_ms);
    if (i == 0) node->mark_source();
    directory_.insert(id, static_cast<std::uint32_t>(i));
    nodes_.push_back(std::move(node));
  }
}

double Session::sample_rate(double lo, double hi, bool skewed) {
  // Inbound rates: the paper draws "randomly ... from 300 Kbps to
  // 1 Mbps" with an average of 450 Kbps — skewed toward the low end; a
  // truncated exponential on [lo, hi] reproduces that (mean at
  // lo + span/4.6, the lambda ~ 15 of the Section 5.1 theory).
  //
  // Outbound rates: the paper only says the arrangement is "alike"
  // (same range). We read that as uniform on the range (mean 21.5).
  // This matters: the paper's evaluation model charges no uplink
  // occupancy at all (arrivals are independent Poisson), while our
  // fluid model serializes every transfer — granting the uplink the
  // uniform reading keeps the supply slack its results presuppose.
  const double span = hi - lo;
  const double beta = span / 4.45;  // calibrated so the mean ~ lo + span/4.6
  if (!config_.heterogeneous_bandwidth) {
    return skewed ? lo + beta * (1.0 - std::exp(-span / beta)) : lo + span / 2.0;
  }
  return skewed ? lo + std::min(rng_.next_exponential(1.0 / beta), span)
                : rng_.next_range(lo, hi);
}

double Session::sample_ping() {
  // Same broadband/dial-up mixture as the trace generator.
  if (rng_.next_bool(0.6)) {
    return std::min(15.0 + rng_.next_exponential(1.0 / 20.0), 100.0);
  }
  return std::min(100.0 + rng_.next_exponential(1.0 / 50.0), 300.0);
}

void Session::assign_initial_neighbors(const trace::TraceSnapshot& snapshot) {
  util::Rng topo_rng = rng_.fork();
  trace::Topology topology(snapshot, config_.connected_neighbors, topo_rng);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    std::vector<std::uint32_t> adjacency = topology.neighbors(static_cast<std::uint32_t>(i));
    rng_.shuffle(adjacency);
    for (const auto peer_index : adjacency) {
      if (node.neighbors().full()) break;
      // Partnerships are the undirected overlay edges: install both
      // directions (TCP connections serve data exchange both ways).
      Node& peer = *nodes_[peer_index];
      if (peer.neighbors().full()) continue;
      const double lat =
          topology.latency_ms(static_cast<std::uint32_t>(i), peer_index);
      if (node.neighbors().contains(peer.id())) continue;
      node.neighbors().add(peer.id(), lat, /*now=*/0.0);
      peer.neighbors().add(node.id(), lat, /*now=*/0.0);
    }
    // Seed the overheard list with a few random peers so early repair
    // has candidates (models join-time observations).
    for (int s = 0; s < 5; ++s) {
      const auto r = static_cast<std::size_t>(rng_.next_below(nodes_.size()));
      if (r == i) continue;
      node.overheard().hear(nodes_[r]->id(),
                            network_.latency().latency_ms(i, r), 0.0);
    }
  }
}

void Session::populate_initial_dht() {
  // Each node's level-i peer is a member drawn uniformly from its level
  // arc; the rank table counts and indexes any arc in O(1).
  const dht::MemberRank rank(space_, directory_.members());
  for (const auto& node : nodes_) {
    for (unsigned level = 1; level <= space_.levels(); ++level) {
      const auto pick = dht::draw_level_peer(space_, rank, node->id(), level, rng_);
      if (!pick) continue;
      const auto pick_index = index_of(*pick).value();
      node->dht_peers().offer(*pick,
                              network_.latency().latency_ms(node->session_index(),
                                                            pick_index),
                              /*now=*/0.0);
    }
  }
}

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

void Session::start_processes() {
  const double tau = kSchedulingPeriod;

  // Source emission: segment s appears at the (s+1)-th 1/p tick.
  emission_tick_ = emission_.add(emission_.period(), /*user=*/0);

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    round_handles_.push_back(rounds_.add_at(round_phase(rng_), i));
  }

  // The metrics sampler and churn planner share the scheduling period;
  // they ride the same RoundScheduler under reserved tags.
  sample_tick_ = rounds_.add(tau, kSampleTickUser);
  if (config_.churn_enabled) {
    churn_tick_ = rounds_.add(kChurnPhase * tau, kChurnTickUser);
  }

  // Crash-stop events from the fault plan: plain serial simulator
  // events (victims leave the round scheduler inside kill_node).
  for (const auto& crash : config_.fault.crashes) {
    if (crash.time <= 0.0 || crash.fraction <= 0.0) continue;
    sim_.schedule_at(crash.time, [this, fraction = crash.fraction] {
      on_fault_crash(fraction);
    });
  }
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
  // repair mutates shared overlay link state reciprocally, so it can
  // never fork.
  const std::uint64_t link_t0 =
      prof != nullptr ? sim::parallel::monotonic_ns() : 0;
  for (const std::size_t user : users) round_prepare_link(user);
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

void Session::run(SimTime duration) {
  run_thread_ = std::this_thread::get_id();
  if (profiler_ != nullptr) {
    // Bracket the run wall so the Amdahl estimate has its base: serial
    // time = run wall minus the executor's fork walls.
    const std::uint64_t t0 = sim::parallel::monotonic_ns();
    sim_.run_until(duration);
    profiler_->add_run_wall(sim::parallel::monotonic_ns() - t0);
    return;
  }
  sim_.run_until(duration);
}

void Session::stop() {
  emission_.remove(emission_tick_);
  for (const auto handle : round_handles_) rounds_.remove(handle);
  rounds_.remove(sample_tick_);
  rounds_.remove(churn_tick_);
}

bool Session::reachable(std::uint32_t to) const {
  return to < nodes_.size() && nodes_[to]->alive();
}

void Session::before_fork(std::size_t shards) {
  delivery_shard_stats_.assign(shards, SessionStats{});
  obs_ensure_shards(shards);
}

void Session::after_join(std::size_t) {
  sim::parallel::reduce_in_order(delivery_shard_stats_, stats_);
}

SessionStats& Session::delivery_stats(const net::DeliveryContext& ctx) {
  return ctx.parallel() ? delivery_shard_stats_[ctx.shard()] : stats_;
}

bool Session::in_time(const Node& node, SegmentId id, SimTime now) const {
  const auto& buffer = node.buffer();
  if (!buffer.started()) return true;  // no deadline yet
  if (id < buffer.window_head()) return false;
  return now <= buffer.deadline(id);
}

void Session::store_backup_if_responsible(Node& node, SegmentId id) {
  const auto arc_end = node.dht_peers().closest_clockwise_peer();
  if (!arc_end.has_value()) return;  // no DHT knowledge yet
  node.backup().offer(id, *arc_end);
}

// --------------------------------------------------------------------------
// Source emission
// --------------------------------------------------------------------------

void Session::on_source_emit() {
  Node& source = *nodes_.front();
  source.buffer().insert(emitted_);
  store_backup_if_responsible(source, emitted_);
  if (config_.scheduler == SchedulerKind::kGridMediaPushPull) {
    push_relay(source, emitted_);
  }
  ++emitted_;
  ++stats_.segments_emitted;
}

// --------------------------------------------------------------------------
// Node round
// --------------------------------------------------------------------------

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

void Session::round_prepare_link(std::size_t index) {
  Node& node = *nodes_[index];
  if (!node.alive()) return;
  // Neighbor repair rewires the overlay reciprocally — the one prepare
  // step whose writes cross node boundaries, so it stays serial. It
  // runs after the prepare-local join: this round's playback misses
  // (the "struggling" signal) and piggybacked overhearing are already
  // in place, and the forked phase could not have observed a
  // half-repaired mesh.
  repair_neighbors(node);
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

void Session::repair_neighbors(Node& node) {
  const SimTime now = sim_.now();

  // Drop dead neighbors, in place: remove() keeps the order of the rest.
  const std::vector<overlay::Neighbor>& neighbors = node.neighbors().all();
  for (std::size_t i = 0; i < neighbors.size();) {
    const NodeId id = neighbors[i].id;
    if (index_of(id).has_value()) {
      ++i;
      continue;
    }
    node.neighbors().remove(id);
    node.rates().forget(id);
    node.overheard().forget(id);
  }

  std::vector<NodeId>& excluded = round_scratch().excluded;
  excluded.clear();
  for (const overlay::Neighbor& neighbor : neighbors) excluded.push_back(neighbor.id);
  excluded.push_back(node.id());

  // Refill toward M initiated links from the lowest-latency overheard
  // candidates; the new partnership is reciprocal.
  while (node.neighbors().size() < config_.connected_neighbors) {
    const auto candidate = node.overheard().best_candidate(excluded);
    if (!candidate.has_value()) break;
    const auto cidx = index_of(candidate->id);
    if (!cidx.has_value()) {
      node.overheard().forget(candidate->id);
      continue;
    }
    node.neighbors().add(candidate->id, candidate->latency_ms, now);
    nodes_[*cidx]->neighbors().add(node.id(), candidate->latency_ms, now);
    excluded.push_back(candidate->id);
    ++stats_.neighbor_replacements;
  }

  // Replace at most one low-supply neighbor per round, and only when
  // this node is actually struggling (missed a deadline in the current
  // round) — a healthy node keeps its partnerships stable instead of
  // thrashing the mesh. Reciprocal add; the dropped side notices the
  // asymmetry and repairs independently.
  const bool struggling = node.round_stats().missed > 0;
  if (struggling && node.neighbors().size() >= config_.connected_neighbors) {
    const auto weakest = node.neighbors().weakest(now, kNeighborMinAge);
    if (weakest.has_value() && weakest->supply_rate < kLowSupplyThreshold) {
      const auto candidate = node.overheard().best_candidate(excluded);
      if (candidate.has_value()) {
        const auto cidx = index_of(candidate->id);
        if (cidx.has_value()) {
          node.neighbors().remove(weakest->id);
          node.rates().forget(weakest->id);
          node.neighbors().add(candidate->id, candidate->latency_ms, now);
          nodes_[*cidx]->neighbors().add(node.id(), candidate->latency_ms, now);
          ++stats_.neighbor_replacements;
        }
      }
    }
  }
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

void Session::run_scheduling(Node& node, double budget_fraction) {
  ScheduleResult& result = round_scratch().retry_result;
  std::uint64_t seen = 0;
  const bool planned = plan_scheduling(node, budget_fraction, result, seen);
  stats_.candidates_seen += seen;
  if (!planned) return;
  stats_.candidates_unassigned += result.unassigned;
  stats_.segments_booked += result.assignments.size();
  commit_scheduling(node, result);
}

void Session::commit_scheduling(Node& node, const ScheduleResult& result) {
  const SimTime now = sim_.now();
  RoundScratch& scratch = round_scratch();
  std::vector<const Assignment*>& booked = scratch.booked;
  util::ReusableFlatSet<NodeId>& suppliers = scratch.suppliers;
  util::FlatMap<NodeId, std::uint32_t>& list_of = scratch.list_of;
  booked.clear();
  suppliers.clear();
  list_of.clear();
  // Book every assignment the node can start, then group them per
  // supplier into one pull request each. Requests go out in the slot
  // order of a FlatMap keyed by supplier and filled in booking order
  // from empty: a pure function of the booked list (unordered_map
  // order depended on libstdc++ bucket internals, and a reused map's
  // order would depend on the capacity earlier calls left it).
  // ReusableFlatSet reproduces that order without allocating.
  for (const auto& assignment : result.assignments) {
    if (!node.begin_transfer(assignment.segment, TransferKind::kScheduled,
                             assignment.supplier, now)) {
      continue;
    }
    booked.push_back(&assignment);
    if (suppliers.insert(assignment.supplier)) {
      list_of[assignment.supplier] = acquire_id_list();
    }
  }
  for (const Assignment* assignment : booked) {
    id_lists_[list_of.at(assignment->supplier)].push_back(assignment->segment);
  }
  for (const NodeId supplier_id : suppliers) {
    IdList request(this, list_of.at(supplier_id));
    const auto supplier_index = index_of(supplier_id);
    if (!supplier_index.has_value()) continue;
    const auto bits = static_cast<Bits>(request.ids().size()) *
                      WireCosts::kSegmentRequestPerIdBits;
    ++stats_.requests_sent;
    const std::size_t requester = node.session_index();
    const std::size_t supplier = *supplier_index;
    network_.send_sharded(
        requester, supplier, MessageType::kSegmentRequest, bits,
        [this, supplier32 = static_cast<std::uint32_t>(supplier),
         requester32 = static_cast<std::uint32_t>(requester),
         request = std::move(request)](net::DeliveryContext& ctx) mutable {
          handle_segment_request(supplier32, requester32, std::move(request), ctx);
        });
  }
}

// --------------------------------------------------------------------------
// Transfers
// --------------------------------------------------------------------------

void Session::handle_segment_request(std::size_t supplier, std::size_t requester,
                                     IdList request, net::DeliveryContext& ctx) {
  // The list goes back to the pool on the serial path: at the join when
  // forked, right away in immediate mode — or it rides on in the nack.
  const auto release = [&ctx](IdList list) { ctx.defer([list = std::move(list)] {}); };
  Node& sup = *nodes_[supplier];
  if (!sup.alive()) {
    release(std::move(request));
    return;
  }
  std::vector<SegmentId>& ids = request.ids();
  SessionStats& stats = delivery_stats(ctx);
  const SimTime now = sim_.now();
  // Obs-owned writes only (counter lane + trace ring of this shard);
  // ctx.shard() is 0 on the serial/immediate path.
  if (obs_counters_ != nullptr) {
    obs_counters_->add(ctx.shard(), ctr_pull_requests_, 1);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.time = now;
    event.kind = obs::TraceEventKind::kPullRequest;
    event.node = static_cast<std::uint32_t>(requester);
    event.peer = static_cast<std::uint32_t>(supplier);
    event.a = ids.size();
    trace_->record(ctx.shard(), event);
  }
  const double horizon = kServeWithinPeriods * kSchedulingPeriod;
  const double service_time = 1.0 / std::max(sup.outbound_rate(), 0.01);
  // Keep the urgent head of the request in priority order (the
  // requester ranked deadline-critical segments first), but serve the
  // elastic tail in RANDOM order: if every supplier served each
  // identically-ordered request front-to-back, all requesters would end
  // up with the same segments and gossip exchange would die out.
  //
  // The shuffle draws from a per-request stream keyed on (instant,
  // supplier, requester) — a handler running on a worker shard may not
  // touch the shared session RNG, and the derived stream makes the
  // serve order a pure function of the delivery schedule at every
  // thread count (the parallel engine's standard per-tick RNG recipe).
  if (ids.size() > kUrgentHead) {
    util::Rng request_rng = util::Rng::for_tick(
        config_.seed, now,
        (static_cast<std::uint64_t>(supplier) << 32) |
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(requester)));
    request_rng.shuffle(ids.data() + kUrgentHead, ids.size() - kUrgentHead);
  }
  // Per-id grant/refuse trace events share every field but kind and the
  // segment id; building the template once keeps the per-segment cost
  // of an enabled trace to a kind/id store and a ring push.
  obs::TraceSink* const trace = trace_.get();
  obs::TraceEvent serve_event;
  if (trace != nullptr) {
    serve_event.time = now;
    serve_event.node = static_cast<std::uint32_t>(requester);
    serve_event.peer = static_cast<std::uint32_t>(supplier);
  }
  // Refused ids are compacted to the front of the list, which then
  // travels in the nack.
  std::size_t refused = 0;
  for (const SegmentId id : ids) {
    // Accept only transfers that complete within the service horizon of
    // this request — the supplier keeps no standing backlog.
    const bool overloaded =
        std::max(sup.uplink_free_at(), now) + service_time - now > horizon;
    const bool gone = !sup.buffer().has(id) && !sup.backup().has(id);
    if (overloaded || gone) {
      // The paper's case 3 (no available bandwidth) or an eviction race:
      // refuse explicitly so the requester can reschedule immediately
      // instead of waiting out a timeout.
      ++stats.segments_refused;
      ids[refused++] = id;
      if (trace != nullptr) {
        serve_event.kind = obs::TraceEventKind::kPullRefused;
        serve_event.a = id;
        trace->record(ctx.shard(), serve_event);
      }
      continue;
    }
    if (trace != nullptr) {
      serve_event.kind = obs::TraceEventKind::kPullGrant;
      serve_event.a = id;
      trace->record(ctx.shard(), serve_event);
    }
    start_fluid_transfer(supplier, requester, id, MessageType::kSegmentData,
                         TransferKind::kScheduled, &ctx);
  }
  if (refused == 0) {
    release(std::move(request));
    return;
  }
  ids.resize(refused);
  // The nack send mutates shared engine state (traffic account, event
  // queue), so it rides the context: inline in immediate mode, settled
  // at the join when forked.
  ctx.defer([this, supplier = static_cast<std::uint32_t>(supplier),
             requester = static_cast<std::uint32_t>(requester), supplier_id = sup.id(),
             refused_ids = std::move(request)]() mutable {
    network_.send_sharded(
        supplier, requester, MessageType::kRequestNack, WireCosts::kSmallPacketBits,
        [this, requester, supplier_id,
         refused_ids = std::move(refused_ids)](net::DeliveryContext& nack_ctx) mutable {
          // A refusal frees the in-flight slots for the next round and
          // mildly decays the supplier's estimate so chronic saturation
          // steers bookings elsewhere. (Immediate rescheduling would
          // retry the same saturated supplier in a tight loop.)
          // Requester-own writes only — shard-safe.
          Node& req = *nodes_[requester];
          if (req.alive()) {
            for (const SegmentId id : refused_ids.ids()) req.end_transfer(id);
            req.rates().on_transfer_refused(supplier_id);
          }
          nack_ctx.defer([list = std::move(refused_ids)] {});
        });
  });
}

void Session::start_fluid_transfer(std::size_t supplier, std::size_t requester,
                                   SegmentId id, net::MessageType type,
                                   TransferKind kind, net::DeliveryContext* ctx) {
  Node& sup = *nodes_[supplier];
  const SimTime now = sim_.now();

  // Tandem-queue fluid model. Stage 1: the supplier's uplink serializes
  // departures at its outbound rate. Stage 2 (at arrival time): the
  // receiver's downlink serializes deliveries at its inbound rate. The
  // two queues pipeline — a wait at the uplink does not occupy the
  // receiver's downlink.
  //
  // The uplink booking happens HERE, inside the (possibly forked)
  // request handler — supplier-own state, and later segments of the
  // same request must see earlier bookings for the admission horizon
  // to mean anything. Only the wire send defers.
  const double up_rate = std::max(sup.outbound_rate(), 0.01);
  const SimTime departure = std::max(now, sup.uplink_free_at()) + 1.0 / up_rate;
  sup.set_uplink_free_at(departure);

  const NodeId supplier_id = sup.id();
  const double bottleneck =
      std::max(1.0 / up_rate, 1.0 / std::max(nodes_[requester]->inbound_rate(), 0.01));
  const SimTime uplink_wait = departure - now;
  const auto send_stage2 = [this, supplier = static_cast<std::uint32_t>(supplier),
                            requester = static_cast<std::uint32_t>(requester), id,
                            kind, supplier_id, bottleneck, type, uplink_wait] {
    network_.send_sharded(
        supplier, requester, type, WireCosts::kSegmentBits,
        [this, requester, id, kind, supplier_id,
         bottleneck](net::DeliveryContext& delivery_ctx) {
          // Stage 2: queue on the receiver's downlink. Receiver-own
          // writes only; same-bucket arrivals for one receiver chain
          // through downlink_free_at in schedule order — the shard
          // groups by receiver precisely so this serialization holds.
          Node& req = *nodes_[requester];
          if (!req.alive()) return;
          const SimTime arrival = sim_.now();
          const double down_rate = std::max(req.inbound_rate(), 0.01);
          const SimTime done =
              std::max(arrival, req.downlink_free_at()) + 1.0 / down_rate;
          req.set_downlink_free_at(done);
          // Stage 3 forks too: the completion is a sharded
          // continuation on the same receiver (an exact schedule_at in
          // continuous mode, the grid bucket at ceil(done) when
          // quantized).
          delivery_ctx.forward(
              requester, done,
              [this, requester, id, kind, supplier_id,
               bottleneck](net::DeliveryContext& done_ctx) {
                deliver_segment(requester, id, kind, supplier_id, bottleneck,
                                done_ctx);
              });
        },
        /*extra_delay=*/uplink_wait);
  };
  if (ctx != nullptr) {
    ctx->defer(send_stage2);
  } else {
    send_stage2();
  }
}

void Session::deliver_segment(std::size_t receiver, SegmentId id, TransferKind kind,
                              NodeId supplier, double transfer_duration,
                              net::DeliveryContext& ctx) {
  Node& node = *nodes_[receiver];
  if (!node.alive()) return;
  SessionStats& stats = delivery_stats(ctx);
  const SimTime now = sim_.now();

  const auto record = (kind == TransferKind::kScheduled)
                          ? node.end_transfer(id)
                          : std::optional<InflightTransfer>{};
  if (kind == TransferKind::kPrefetch) node.end_prefetch(id);
  const bool fresh = node.buffer().insert(id);
  ++stats.segments_delivered;
  if (!fresh) ++stats.duplicate_deliveries;
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.time = now;
    event.kind = obs::TraceEventKind::kSegmentDelivery;
    event.node = static_cast<std::uint32_t>(receiver);
    event.a = id;
    event.b = supplier;  // NodeId, not a session index
    trace_->record(ctx.shard(), event);
  }

  // Hardening: a completed delivery clears the segment's retry streak
  // and wipes the supplier's strike record. Receiver-own writes only,
  // so this is safe inside a forked receiver shard.
  if (hardened_) {
    node.clear_retry(id);
    node.note_supplier_success(supplier);
  }

  // The push relay reads OTHER nodes' buffers and draws from the
  // shared session RNG, so it always runs serially: inline in
  // immediate mode, at the join (shard order) when forked. The alive
  // re-check is for the deferred case.
  const auto relay_via_ctx = [this, &ctx, receiver, id] {
    ctx.defer([this, receiver, id] {
      Node& relay_node = *nodes_[receiver];
      if (relay_node.alive()) push_relay(relay_node, id);
    });
  };

  if (kind == TransferKind::kPushed) {
    // Unsolicited relay: credit the supplier's supply score (it spent
    // uplink on us) but take no R_ij sample — we never requested it.
    node.neighbors().record_supply_event(supplier);
    store_backup_if_responsible(node, id);
    if (fresh && config_.scheduler == SchedulerKind::kGridMediaPushPull) {
      relay_via_ctx();
    }
    return;
  }

  if (kind == TransferKind::kScheduled) {
    // The receiver measures the connection's throughput over the
    // transfer itself (bytes/time while receiving) — propagation
    // latency does not dilute the R_ij estimate.
    (void)record;
    node.rates().on_transfer_complete(supplier, transfer_duration);
    node.neighbors().record_supply_event(supplier);
    // Repeated data (alpha case 2): gossip delivered a segment that
    // pre-fetch had already fetched, and in time.
    if (!fresh && node.prefetch_tagged(id) && in_time(node, id, now)) {
      node.urgent_line().on_repeated_prefetch();
    }
  } else {
    ++stats.prefetch_succeeded;
    node.tag_prefetched(id);
    if (fresh) {
      // Overdue data (alpha case 1): the pre-fetch landed too late.
      if (!in_time(node, id, now)) {
        node.urgent_line().on_overdue_prefetch();
      }
    } else if (in_time(node, id, now)) {
      // Gossip beat the pre-fetch and the deadline: repeated data.
      node.urgent_line().on_repeated_prefetch();
    }
  }

  store_backup_if_responsible(node, id);

  // GridMedia-style relay: "a pushing packet is relayed by a neighbor
  // as soon as it is received". Duplicates die out at receivers that
  // already hold the segment.
  if (fresh && config_.scheduler == SchedulerKind::kGridMediaPushPull) {
    relay_via_ctx();
  }
}

void Session::push_relay(Node& node, SegmentId id) {
  // Relay to partners that (per their current buffer map) lack the
  // segment. The source seeds with the full fan-out; relays forward to
  // one partner each — an unthrottled fan-out cascade floods every
  // uplink with duplicates (exactly the overhead the paper criticizes
  // GridMedia for), starving the pull plane. Respect the uplink
  // admission horizon so pushes cannot monopolize a saturated uplink.
  const std::size_t fanout =
      node.is_source() ? kPushFanout + 2 : std::size_t{1};
  auto partners = node.neighbors().ids();
  rng_.shuffle(partners);
  std::size_t pushed = 0;
  for (const NodeId partner : partners) {
    if (pushed >= fanout) break;
    const auto pidx = index_of(partner);
    if (!pidx.has_value()) continue;
    Node& peer = *nodes_[*pidx];
    if (peer.buffer().has(id)) continue;
    const double horizon = kServeWithinPeriods * kSchedulingPeriod;
    const double service = 1.0 / std::max(node.outbound_rate(), 0.01);
    if (std::max(node.uplink_free_at(), sim_.now()) + service - sim_.now() > horizon) {
      break;  // uplink saturated: pulls take precedence
    }
    start_fluid_transfer(node.session_index(), *pidx, id, MessageType::kSegmentData,
                         TransferKind::kPushed);
    ++stats_.segments_pushed;
    ++pushed;
  }
}

// --------------------------------------------------------------------------
// On-demand data retrieval (Algorithm 2)
// --------------------------------------------------------------------------

Session::PrefetchPlan Session::plan_prefetch(const Node& node,
                                             const ScheduleResult* planned) const {
  PrefetchPlan plan;
  const SimTime now = sim_.now();
  const auto& buffer = node.buffer();
  if (!buffer.started()) return plan;  // no deadlines to protect yet

  // The urgent region starts just past the play point (the "head" of
  // the unplayed buffer in Figure 4's sense).
  const SegmentId head =
      std::max(buffer.play_point(now) + 1, buffer.window_head());
  const SegmentId urgent = node.urgent_line().urgent_id(head);
  // Predicted-missed: white (absent) segments at or below the urgent
  // line that are not already on their way, and actually exist.
  const SegmentId limit = std::min(urgent + 1, emitted_);
  // Predicted-missed segments. For IMMINENT deadlines (within t_fetch
  // of the play point) the pre-fetch channel deliberately RACES any
  // pending gossip request — if gossip wins in time, that is exactly
  // the paper's "repeated data" case and alpha shrinks. Further out,
  // a segment already riding a gossip request is not yet "predicted
  // missed" and is left to the scheduler.
  const SegmentId imminent =
      head + static_cast<SegmentId>(std::ceil(
                 static_cast<double>(config_.playback_rate) * urgent_.t_fetch)) + 1;
  // A segment the SAME round's scheduling plan just booked is not yet
  // in transfer_pending (bookings commit after the plan join), so
  // consult the plan directly — reproducing the serial rule that a
  // freshly booked non-imminent segment is not "predicted missed".
  const auto booked_in_plan = [planned](SegmentId id) {
    if (planned == nullptr) return false;
    for (const auto& assignment : planned->assignments) {
      if (assignment.segment == id) return true;
    }
    return false;
  };
  RoundScratch& scratch = round_scratch();
  std::vector<SegmentId>& missing = scratch.missing;
  std::vector<SegmentId>& missed = scratch.missed;
  missing.clear();
  missed.clear();
  buffer.window().missing_in(head, limit, missing);
  for (const SegmentId id : missing) {
    if (node.prefetch_pending(id)) continue;
    if (id >= imminent && (node.transfer_pending(id) || booked_in_plan(id))) {
      continue;
    }
    // Hardening: a segment inside its backoff window is not retried —
    // neither by gossip (plan_scheduling skips it) nor by pre-fetch.
    if (hardened_ && node.retry_blocked(id, now)) continue;
    missed.push_back(id);
  }

  const std::size_t quota = prefetch_quota(missed.size(), config_.prefetch_limit);
  if (quota == 0 && !missed.empty()) plan.suppressed = true;
  // Pre-fetch shares the inbound rate with the scheduler: skip when the
  // downlink is already saturated with scheduled arrivals.
  const double backlog_s = std::max(0.0, node.downlink_free_at() - now);
  if (backlog_s > 0.5 * kSchedulingPeriod) return plan;

  plan.launch.assign(missed.begin(), missed.begin() + quota);
  return plan;
}

void Session::launch_prefetch(std::size_t origin, SegmentId segment) {
  Node& node = *nodes_[origin];
  if (!node.begin_prefetch(segment, sim_.now())) {
    return;
  }
  ++stats_.prefetch_launched;

  std::uint32_t index;
  if (free_prefetch_ops_.empty()) {
    index = static_cast<std::uint32_t>(prefetch_ops_.size());
    prefetch_ops_.emplace_back();
  } else {
    index = free_prefetch_ops_.back();
    free_prefetch_ops_.pop_back();
  }
  PrefetchOp& op = prefetch_ops_[index];
  op = PrefetchOp{};
  op.origin = static_cast<std::uint32_t>(origin);
  op.segment = segment;
  op.pending_replies = config_.backup_replicas;

  // Held across the loop: a lookup whose first send is lost drops its
  // reference at once, which must not free the op under the others.
  const PrefetchRef launch(this, index);
  for (unsigned replica = 1; replica <= config_.backup_replicas; ++replica) {
    const NodeId target = space_.backup_target(segment, replica);
    route_hop(origin, target, origin, launch, 0);
  }
}

void Session::route_hop(std::size_t current, NodeId target, std::size_t origin,
                        PrefetchRef op, unsigned hops) {
  Node& node = *nodes_[current];
  if (hops > hop_cap_) {
    ++stats_.dht_route_failures;
    finish_locate(current, std::move(op));
    return;
  }

  for (;;) {
    const auto next = node.dht_peers().next_hop(target);
    if (!next.has_value()) {
      finish_locate(current, std::move(op));
      return;
    }
    const auto next_index = index_of(*next);
    if (!next_index.has_value()) {
      node.dht_peers().evict(*next);  // stale entry: peer is gone
      continue;
    }
    ++stats_.dht_route_messages;
    // DHT hops are the largest in-flight event population, so the hop
    // is kept to 40 bytes: the op reference (which also carries the
    // Session pointer) plus five 32-bit fields. The reference moves
    // hop to hop, so forwarding never touches the op's count.
    auto hop = [op = std::move(op), target, nidx32 = static_cast<std::uint32_t>(*next_index),
                origin32 = static_cast<std::uint32_t>(origin),
                current32 = static_cast<std::uint32_t>(current), hops]() mutable {
      // Overhearing: the forwarding node learns about the query origin
      // and the previous hop for free.
      Session& self = op.session();
      const std::size_t nidx = nidx32;
      const std::size_t origin = origin32;
      const std::size_t current = current32;
      Node& here = *self.nodes_[nidx];
      const Node& org = *self.nodes_[origin];
      const Node& prev = *self.nodes_[current];
      const SimTime now = self.sim_.now();
      if (org.alive() && org.id() != here.id()) {
        here.overheard().hear(org.id(), self.network_.latency().latency_ms(nidx, origin),
                              now);
      }
      if (prev.alive() && prev.id() != here.id()) {
        here.overheard().hear(prev.id(), self.network_.latency().latency_ms(nidx, current),
                              now);
      }
      self.route_hop(nidx, target, origin, std::move(op), hops + 1);
    };
    static_assert(sizeof(hop) <= 40, "DHT hop capture grew past 40 bytes");
    network_.send(current, *next_index, MessageType::kDhtRoute, WireCosts::kDhtRouteBits,
                  std::move(hop));
    return;
  }
}

void Session::finish_locate(std::size_t terminal, PrefetchRef op) {
  Node& owner = *nodes_[terminal];
  const SegmentId segment = op.op().segment;
  const bool has = owner.backup().has(segment) || owner.buffer().has(segment);
  const double rate = owner.available_sending_rate(sim_.now());
  const std::uint32_t origin = op.op().origin;
  network_.send(terminal, origin, MessageType::kDhtReply, WireCosts::kDhtReplyBits,
                [op = std::move(op), terminal32 = static_cast<std::uint32_t>(terminal),
                 has, rate] {
                  op.session().on_prefetch_reply(op.op(), terminal32, has, rate);
                });
}

void Session::on_prefetch_reply(PrefetchOp& op, std::size_t owner, bool has_segment,
                                double rate) {
  if (has_segment && rate > op.best_rate) {
    op.best_rate = rate;
    op.best_owner = owner;
  }
  if (op.pending_replies == 0) return;  // defensive: already resolved
  if (--op.pending_replies > 0) return;

  const std::size_t origin_index = op.origin;
  const SegmentId segment = op.segment;
  Node& origin = *nodes_[origin_index];
  if (!origin.alive()) return;
  if (!op.best_owner.has_value()) {
    ++stats_.prefetch_no_replica;
    origin.end_prefetch(segment);
    return;
  }
  const std::size_t chosen = *op.best_owner;
  network_.send(origin_index, chosen, MessageType::kPrefetchRequest,
                WireCosts::kPrefetchRequestBits,
                [this, chosen32 = static_cast<std::uint32_t>(chosen),
                 origin32 = static_cast<std::uint32_t>(origin_index), segment] {
                  handle_prefetch_request(chosen32, origin32, segment);
                });
}

void Session::handle_prefetch_request(std::size_t owner, std::size_t origin,
                                      SegmentId segment) {
  Node& node = *nodes_[owner];
  if (!node.alive()) return;
  if (!node.backup().has(segment) && !node.buffer().has(segment)) return;
  // Pre-fetch transfers are deadline-critical: the origin picked this
  // owner for its available sending rate, so serve unless the uplink is
  // severely backed up (then the origin's timeout recovers).
  if (node.uplink_free_at() - sim_.now() >
      2.0 * kServeWithinPeriods * kSchedulingPeriod) {
    return;
  }
  start_fluid_transfer(owner, origin, segment, MessageType::kPrefetchData,
                       TransferKind::kPrefetch);
}

// --------------------------------------------------------------------------
// DHT peer refresh (overhearing-driven maintenance)
// --------------------------------------------------------------------------

void Session::refresh_dht_peers(Node& node) {
  const SimTime now = sim_.now();
  for (const auto& heard : node.overheard().entries()) {
    node.dht_peers().offer(heard.id, heard.latency_ms, now);
  }
  // Evict any DHT peer we know to be dead (cheap liveness sweep).
  node.dht_peers().evict_if(
      [this](NodeId peer) { return !index_of(peer).has_value(); });
}

// --------------------------------------------------------------------------
// Churn
// --------------------------------------------------------------------------

void Session::on_churn_tick() {
  std::vector<std::size_t> alive;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {  // source never churns
    if (nodes_[i]->alive()) alive.push_back(i);
  }
  const overlay::ChurnBatch batch = churn_.plan(alive);

  std::vector<NodeId> dead_ids;
  for (const auto index : batch.graceful_leavers) {
    dead_ids.push_back(nodes_[index]->id());
    kill_node(index, /*graceful=*/true);
  }
  for (const auto index : batch.abrupt_leavers) {
    dead_ids.push_back(nodes_[index]->id());
    kill_node(index, /*graceful=*/false);
  }

  drop_transfers_from_dead(dead_ids);

  for (std::size_t j = 0; j < batch.joins; ++j) {
    do_join();
  }
}

void Session::drop_transfers_from_dead(const std::vector<NodeId>& dead_ids) {
  // Abandon in-flight transfers sourced from the departed. The sweep is
  // per-receiver-node independent (each node mutates only its own
  // in-flight table), so it shards across the executor — the serial
  // mass of a churn tick at 8000 nodes is this O(N) scan. Each node
  // makes one pass over its table against the ids sorted once here.
  if (dead_ids.empty()) return;
  std::vector<NodeId> sorted_dead = dead_ids;
  std::sort(sorted_dead.begin(), sorted_dead.end());
  exec_.for_shards(obs::Phase::kChurnSweep, nodes_.size(), kSweepGrain,
                   [this, &dead_ids, &sorted_dead](std::size_t, std::size_t begin,
                                                   std::size_t end) {
                     RoundScratch& scratch = round_scratch();
                     for (std::size_t i = begin; i < end; ++i) {
                       Node& node = *nodes_[i];
                       if (!node.alive()) continue;
                       node.drop_transfers_from_any(dead_ids, sorted_dead,
                                                    scratch.dead_hit, scratch.dropped);
                     }
                   });
}

void Session::on_fault_crash(double fraction) {
  // Crash-stop: victims vanish mid-protocol with no graceful handoff —
  // the abrupt-leave path of the churn machinery, driven by the fault
  // plan instead of the churn process. Victim selection draws from a
  // dedicated per-tick stream so a crash event never perturbs the
  // churn or scheduling RNG sequences.
  std::vector<std::size_t> alive;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {  // source never crashes
    if (nodes_[i]->alive()) alive.push_back(i);
  }
  if (alive.empty()) return;
  std::size_t count = static_cast<std::size_t>(
      std::floor(fraction * static_cast<double>(alive.size())));
  if (count == 0) count = 1;  // a scheduled crash always claims someone
  count = std::min(count, alive.size());

  constexpr std::uint64_t kCrashStream = 0x4352415348ull;  // "CRASH"
  util::Rng rng = util::Rng::for_tick(config_.seed ^ kCrashStream, sim_.now(),
                                      alive.size());
  rng.shuffle(alive);

  std::vector<NodeId> dead_ids;
  dead_ids.reserve(count);
  for (std::size_t v = 0; v < count; ++v) {
    dead_ids.push_back(nodes_[alive[v]]->id());
    kill_node(alive[v], /*graceful=*/false);
    ++stats_.fault_crashes;
  }
  drop_transfers_from_dead(dead_ids);
}

void Session::kill_node(std::size_t index, bool graceful) {
  Node& node = *nodes_[index];
  if (!node.alive() || node.is_source()) return;

  if (graceful) {
    ++stats_.graceful_leaves;
    // Hand the VoD backup to the counter-clockwise closest alive node.
    const auto heir_id = directory_.predecessor_of(node.id());
    if (heir_id.has_value()) {
      const auto heir_index = index_of(*heir_id);
      if (heir_index.has_value()) {
        auto contents = node.backup().take_all();
        const auto bits = WireCosts::kSmallPacketBits +
                          static_cast<Bits>(contents.size()) * WireCosts::kSegmentBits;
        Node& heir = *nodes_[*heir_index];
        network_.send(index, *heir_index, MessageType::kHandover, bits,
                      [&heir, contents = std::move(contents)] {
                        for (const SegmentId id : contents) heir.backup().store(id);
                      });
      }
    }
  } else {
    ++stats_.abrupt_leaves;
  }

  node.set_alive(false);
  directory_.erase(node.id());
  rounds_.remove(round_handles_[index]);
}

void Session::do_join() {
  NodeId id;
  try {
    id = rp_.assign_id();
  } catch (const std::exception&) {
    return;  // ID space exhausted; skip this join
  }
  const double ping = sample_ping();
  const std::size_t index = network_.latency().add_node(ping);
  auto node = std::make_unique<Node>(
      id, index, config_, urgent_, space_,
      sample_rate(kInboundMin, kInboundMax, /*skewed=*/true),
      sample_rate(kOutboundMin, kOutboundMax, /*skewed=*/false),
      ping);
  const SimTime now = sim_.now();
  ++stats_.joins;

  // RP bootstrap: probe the closest listed nodes (the list is the
  // alive set), pick the nearest as the Peer Table base.
  const auto close = rp_.close_nodes(id, kJoinProbeCount);
  std::optional<std::size_t> base;
  double base_latency = 0.0;
  for (const NodeId candidate : close) {
    const std::size_t cidx = index_of(candidate).value();
    // PING + PONG.
    network_.charge_only(MessageType::kPing, WireCosts::kSmallPacketBits);
    network_.charge_only(MessageType::kPong, WireCosts::kSmallPacketBits);
    const double lat = network_.latency().latency_ms(index, cidx);
    if (!base.has_value() || lat < base_latency) {
      base = cidx;
      base_latency = lat;
    }
  }

  if (base.has_value()) {
    const Node& base_node = *nodes_[*base];
    // Seed overheard from the base's Peer Table.
    node->overheard().hear(base_node.id(), base_latency, now);
    for (const auto& entry : base_node.overheard().entries()) {
      if (entry.id == id) continue;
      const auto eidx = index_of(entry.id);
      if (!eidx.has_value()) continue;
      node->overheard().hear(entry.id, network_.latency().latency_ms(index, *eidx), now);
    }
    for (const NodeId nb : base_node.neighbors().ids()) {
      const auto nidx = index_of(nb);
      if (!nidx.has_value() || nb == id) continue;
      node->overheard().hear(nb, network_.latency().latency_ms(index, *nidx), now);
    }
    // Seed DHT peers from the base's table (levels recompute for the
    // new owner inside offer()).
    for (const auto& peer : base_node.dht_peers().peers()) {
      node->dht_peers().offer(peer.id, peer.latency_ms, now);
    }
    node->dht_peers().offer(base_node.id(), base_latency, now);

    // Connect to up to M lowest-latency alive candidates (reciprocal).
    std::vector<NodeId> excluded{id};
    while (node->neighbors().size() < config_.connected_neighbors) {
      const auto candidate = node->overheard().best_candidate(excluded);
      if (!candidate.has_value()) break;
      excluded.push_back(candidate->id);
      const auto cidx = index_of(candidate->id);
      if (!cidx.has_value()) continue;
      node->neighbors().add(candidate->id, candidate->latency_ms, now);
      nodes_[*cidx]->neighbors().add(id, candidate->latency_ms, now);
      network_.charge_only(MessageType::kJoinNotify, WireCosts::kSmallPacketBits);
    }
  }

  directory_.insert(id, static_cast<std::uint32_t>(index));
  nodes_.push_back(std::move(node));

  round_handles_.push_back(rounds_.add_at(round_phase(rng_), index));
}

// --------------------------------------------------------------------------
// Metrics sampling
// --------------------------------------------------------------------------

void Session::on_sample_tick() {
  const SimTime now = sim_.now();

  // Sharded ordered reduction over all nodes. Each shard accumulates
  // privately (the only cross-node write is resetting a node's OWN
  // round stats); partials merge in shard order, so the alpha_sum
  // floating-point chain is fixed by (node count, grain) alone and the
  // sample is bit-identical at every thread count.
  struct SampleAccum {
    std::uint64_t continuous = 0;
    std::uint64_t counted = 0;
    std::uint64_t played = 0;
    std::uint64_t due = 0;
    std::uint64_t alpha_count = 0;
    std::uint64_t alive = 0;
    std::uint64_t stall_rounds = 0;
    std::uint64_t stall_episodes = 0;
    double alpha_sum = 0.0;
    SampleAccum& operator+=(const SampleAccum& rhs) noexcept {
      continuous += rhs.continuous;
      counted += rhs.counted;
      played += rhs.played;
      due += rhs.due;
      alpha_count += rhs.alpha_count;
      alive += rhs.alive;
      stall_rounds += rhs.stall_rounds;
      stall_episodes += rhs.stall_episodes;
      alpha_sum += rhs.alpha_sum;
      return *this;
    }
  };
  const std::size_t n = nodes_.size();
  std::vector<SampleAccum> partials(
      sim::parallel::ParallelExecutor::shard_count(n, kSweepGrain));
  obs_ensure_shards(partials.size());
  exec_.for_shards(obs::Phase::kSampleSweep, n, kSweepGrain,
                   [this, &partials, now](std::size_t s, std::size_t begin,
                                          std::size_t end) {
                     SampleAccum& acc = partials[s];
                     for (std::size_t i = begin; i < end; ++i) {
                       Node& node = *nodes_[i];
                       if (!node.alive()) continue;
                       ++acc.alive;
                       if (node.is_source()) continue;
                       ++acc.counted;
                       auto& rs = node.round_stats();
                       if (node.buffer().started() && rs.missed == 0 &&
                           rs.played > 0) {
                         ++acc.continuous;
                       }
                       // Stall-episode tracking: a round with a missed
                       // due segment is a stall round; entering one from
                       // a clean round opens an episode. Own-node writes
                       // only (the in_stall bit), so it shards safely.
                       if (node.buffer().started()) {
                         if (rs.missed > 0) {
                           ++acc.stall_rounds;
                           if (!node.in_stall()) {
                             ++acc.stall_episodes;
                             node.set_in_stall(true);
                             if (trace_ != nullptr) {
                               obs::TraceEvent event;
                               event.time = now;
                               event.kind = obs::TraceEventKind::kStallStart;
                               event.node = static_cast<std::uint32_t>(i);
                               trace_->record(s, event);
                             }
                             if (obs_counters_ != nullptr) {
                               obs_counters_->add(s, ctr_stall_transitions_, 1);
                             }
                           }
                         } else if (rs.played > 0) {
                           if (node.in_stall()) {
                             if (trace_ != nullptr) {
                               obs::TraceEvent event;
                               event.time = now;
                               event.kind = obs::TraceEventKind::kStallEnd;
                               event.node = static_cast<std::uint32_t>(i);
                               trace_->record(s, event);
                             }
                             if (obs_counters_ != nullptr) {
                               obs_counters_->add(s, ctr_stall_transitions_, 1);
                             }
                           }
                           node.set_in_stall(false);
                         }
                       }
                       acc.played += rs.played;
                       acc.due += rs.played + rs.missed;
                       rs = Node::RoundStats{};
                       acc.alpha_sum += node.urgent_line().alpha();
                       ++acc.alpha_count;
                     }
                   });
  SampleAccum total;
  sim::parallel::reduce_in_order(partials, total);

  const std::uint64_t continuous = total.continuous;
  const std::uint64_t counted = total.counted;
  continuity_.record_round(now, continuous, counted);
  collector_.record("continuity", now,
                    counted == 0 ? 0.0
                                 : static_cast<double>(continuous) /
                                       static_cast<double>(counted));
  // The per-SEGMENT "continuity index" other papers report (Section
  // 5.3): fraction of due segments that arrived in time this round.
  // Always >= the paper's strict node-level metric — recorded so the
  // two can be compared directly (see bench_fig5/6 and EXPERIMENTS.md).
  collector_.record("continuity_index", now,
                    total.due == 0 ? 0.0
                                   : static_cast<double>(total.played) /
                                         static_cast<double>(total.due));
  if (total.alpha_count > 0) {
    collector_.record("alpha_mean", now,
                      total.alpha_sum / static_cast<double>(total.alpha_count));
  }

  // Per-round overhead deltas and cumulative ratios.
  const auto& traffic = network_.traffic();
  const auto delta = traffic.since(last_traffic_snapshot_);
  collector_.record("control_overhead_round", now, delta.control_overhead());
  collector_.record("prefetch_overhead_round", now, delta.prefetch_overhead());
  collector_.record("control_overhead_cumulative", now, traffic.control_overhead());
  collector_.record("prefetch_overhead_cumulative", now, traffic.prefetch_overhead());
  collector_.record("alive_nodes", now, static_cast<double>(total.alive));
  stats_.stall_rounds += total.stall_rounds;
  stats_.stall_episodes += total.stall_episodes;
  // Stalled-node series: only recorded when faults or hardening are in
  // play, so the zero-fault collector output (and its fingerprint fold)
  // is unchanged.
  if (fault_injector_ != nullptr || hardened_) {
    collector_.record("stalled_nodes", now,
                      static_cast<double>(total.stall_rounds));
  }
  last_traffic_snapshot_ = traffic;
}

// --------------------------------------------------------------------------
// Memory footprint (sizing toward the 100k-node goal)
// --------------------------------------------------------------------------

MemoryFootprint Session::memory_footprint() const {
  MemoryFootprint fp;
  fp.nodes = nodes_.size();
  for (const auto& node : nodes_) {
    fp.buffer_bytes += sizeof(StreamBuffer) + node->buffer().window().approx_bytes();
    fp.neighbor_set_bytes += node->neighbors().approx_bytes();
    fp.overheard_bytes += node->overheard().approx_bytes();
    fp.peer_table_bytes += node->dht_peers().approx_bytes();
    fp.backup_bytes += node->backup().approx_bytes();
    fp.transfer_map_bytes += node->approx_transfer_map_bytes();
    fp.prefetch_map_bytes += node->approx_prefetch_map_bytes();
    fp.tag_set_bytes += node->approx_tag_set_bytes();
    fp.rate_table_bytes += node->rates().approx_bytes();
    fp.retry_map_bytes += node->approx_retry_map_bytes();
    fp.blacklist_bytes += node->approx_blacklist_bytes();
  }
  fp.neighbor_bytes = fp.neighbor_set_bytes + fp.overheard_bytes;
  fp.dht_bytes = fp.peer_table_bytes + fp.backup_bytes;
  fp.inflight_bytes = fp.transfer_map_bytes + fp.prefetch_map_bytes +
                      fp.tag_set_bytes + fp.rate_table_bytes +
                      fp.retry_map_bytes + fp.blacklist_bytes;
  fp.engine_bytes = sim_.queue_bytes() + network_.bucket_bytes();
  return fp;
}

// --------------------------------------------------------------------------
// Observability
// --------------------------------------------------------------------------

void Session::obs_ensure_shards(std::size_t shards) {
  if (trace_ != nullptr) trace_->ensure_shards(shards);
  if (obs_counters_ != nullptr) obs_counters_->ensure_shards(shards);
}

std::shared_ptr<const obs::ObsReport> Session::obs_report() {
  if (profiler_ == nullptr && trace_ == nullptr && obs_counters_ == nullptr) {
    return nullptr;
  }
  auto report = std::make_shared<obs::ObsReport>();
  if (profiler_ != nullptr) {
    report->profile = true;
    report->prof = profiler_->report();
  } else {
    report->prof.threads = exec_.threads();
  }
  if (trace_ != nullptr) {
    report->trace = true;
    report->events = trace_->drained_events();
    report->spans = trace_->drained_spans();
    report->trace_recorded = trace_->recorded();
    report->trace_overwritten = trace_->overwritten();
  }
  if (obs_counters_ != nullptr) {
    report->counters = true;
    obs_counters_->settle();
    const auto& names = obs_counters_->names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      report->counter_values.emplace_back(
          names[i], obs_counters_->value(static_cast<std::uint32_t>(i)));
    }
    // Snapshot-time mirrors: one registry dump carries what previously
    // lived scattered across SessionStats getters, the engine counters
    // and the bench JSON — the unified stats path.
    const SessionStats& s = stats();
    const auto put = [&report](const char* name, std::uint64_t value) {
      report->counter_values.emplace_back(name, value);
    };
    put("session.segments_emitted", s.segments_emitted);
    put("session.segments_delivered", s.segments_delivered);
    put("session.duplicate_deliveries", s.duplicate_deliveries);
    put("session.requests_sent", s.requests_sent);
    put("session.segments_booked", s.segments_booked);
    put("session.segments_refused", s.segments_refused);
    put("session.candidates_seen", s.candidates_seen);
    put("session.candidates_unassigned", s.candidates_unassigned);
    put("session.prefetch_launched", s.prefetch_launched);
    put("session.prefetch_succeeded", s.prefetch_succeeded);
    put("session.prefetch_no_replica", s.prefetch_no_replica);
    put("session.prefetch_suppressed", s.prefetch_suppressed);
    put("session.segments_pushed", s.segments_pushed);
    put("session.dht_route_messages", s.dht_route_messages);
    put("session.dht_route_failures", s.dht_route_failures);
    put("session.joins", s.joins);
    put("session.graceful_leaves", s.graceful_leaves);
    put("session.abrupt_leaves", s.abrupt_leaves);
    put("session.neighbor_replacements", s.neighbor_replacements);
    put("session.transfer_timeouts", s.transfer_timeouts);
    put("session.mixed_batch_fallbacks", s.mixed_batch_fallbacks);
    put("session.deliveries_dropped", s.deliveries_dropped);
    put("session.deliveries_lost", s.deliveries_lost);
    put("session.deliveries_partitioned", s.deliveries_partitioned);
    put("session.fault_crashes", s.fault_crashes);
    put("session.retry_backoffs", s.retry_backoffs);
    put("session.suppliers_blacklisted", s.suppliers_blacklisted);
    put("session.stall_episodes", s.stall_episodes);
    put("session.stall_rounds", s.stall_rounds);
    put("session.alive_at_end", alive_count());
    // No engine.threads mirror: the counter snapshot is defined to be
    // thread-count invariant (the obs tests diff it at widths 1..8);
    // the width lives in ProfileReport::threads instead.
    put("engine.events_executed", sim_.executed());
    put("engine.peak_queue_depth", sim_.peak_pending());
    put("net.delivery_batches", network_.delivery_batches());
    put("net.batched_deliveries", network_.batched_deliveries());
    // Windowed-engine diagnostics: skew-stall (shards a window could
    // not feed) plus the lead histogram — how far past each window's
    // anchor the collected events sat, in grid buckets. Absent on the
    // exact engine, deterministic (thread-count invariant) per skew on
    // the windowed one.
    if (sim_.windowed()) {
      const sim::Simulator::LaxStats& lax = sim_.lax_stats();
      put("engine.lax_windows", lax.windows);
      put("engine.lax_events_drained", lax.events_drained);
      put("engine.lax_stalled_shards", lax.stalled_shards);
      put("net.lax_handoff_windows", network_.lax_handoff_windows());
      for (std::size_t b = 0; b < lax.lead_histogram.size(); ++b) {
        report->counter_values.emplace_back(
            "engine.lax_lead_bucket_" + std::to_string(b), lax.lead_histogram[b]);
      }
    }
  }
  return report;
}

}  // namespace continu::core
