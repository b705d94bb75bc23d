#pragma once
// Full-session driver: owns the simulator, the network, every node and
// all protocol behaviour. One Session is one run of either system
// (ContinuStreaming or the CoolStreaming baseline — chosen by
// SystemConfig::scheduler) on one trace topology.
//
// The session wires together:
//   * source emission (segment s appears at t = s/p),
//   * per-node scheduling rounds (buffer-map charge, Algorithm 1 or
//     rarest-first, pull requests, fluid-model transfers),
//   * the DHT plane (routing chains with overhearing, VoD backups,
//     Algorithm 2 on-demand retrieval, alpha adaptation),
//   * churn (graceful handover / abrupt failure / RP-bootstrapped join),
//   * metrics (per-round playback continuity, overhead tracks).

#include <cassert>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/node.hpp"
#include "core/scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "dht/id_space.hpp"
#include "dht/ring_directory.hpp"
#include "metrics/collector.hpp"
#include "metrics/continuity.hpp"
#include "net/network.hpp"
#include "overlay/churn.hpp"
#include "overlay/rendezvous.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/round_scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace continu::obs {
class CounterRegistry;
class PhaseProfiler;
class TraceSink;
struct ObsReport;
}  // namespace continu::obs

namespace continu::core {

/// Aggregate event counters exposed for tests, benches and examples.
struct SessionStats {
  std::uint64_t segments_emitted = 0;
  std::uint64_t segments_delivered = 0;
  std::uint64_t duplicate_deliveries = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t segments_booked = 0;
  std::uint64_t segments_refused = 0;
  std::uint64_t candidates_seen = 0;
  std::uint64_t candidates_unassigned = 0;
  std::uint64_t prefetch_launched = 0;
  std::uint64_t prefetch_succeeded = 0;
  std::uint64_t prefetch_no_replica = 0;
  std::uint64_t prefetch_suppressed = 0;  ///< case 3: N_miss > l
  std::uint64_t segments_pushed = 0;      ///< GridMedia-style push relays
  std::uint64_t dht_route_messages = 0;
  std::uint64_t dht_route_failures = 0;
  std::uint64_t joins = 0;
  std::uint64_t graceful_leaves = 0;
  std::uint64_t abrupt_leaves = 0;
  std::uint64_t neighbor_replacements = 0;
  std::uint64_t transfer_timeouts = 0;
  /// Round batches that mixed reserved ticks (sample/churn) with node
  /// rounds; the reserved ticks then run first and the node rounds
  /// follow as a batch of their own. Zero by construction (reserved
  /// ticks ride phases of their own); a config change that accidentally
  /// lands them on node-round instants would silently reorder work, so
  /// it is counted and a test pins it at zero.
  std::uint64_t mixed_batch_fallbacks = 0;
  /// Deliveries dropped by the network's liveness filter (the receiver
  /// died while the message was in flight). Mirrored from
  /// Network::dropped() so the counter reaches the fingerprint oracle —
  /// a filter regression can't pass CI as "fewer deliveries, still
  /// deterministic".
  std::uint64_t deliveries_dropped = 0;
  /// Wire messages eaten by injected link loss (FaultPlan iid/burst
  /// loss). Cause-tagged separately from the liveness drops above so
  /// fault runs stay auditable by the determinism oracle; mirrored
  /// from Network::fault_lost().
  std::uint64_t deliveries_lost = 0;
  /// Wire messages dropped for crossing an active partition's region
  /// boundary; mirrored from Network::fault_partitioned().
  std::uint64_t deliveries_partitioned = 0;
  /// Crash-stop victims executed from the FaultPlan (each is also an
  /// abrupt_leave — this counts how many came from the fault schedule).
  std::uint64_t fault_crashes = 0;
  /// Timed-out transfers/prefetches that entered or escalated a
  /// retry-backoff window (hardening active only).
  std::uint64_t retry_backoffs = 0;
  /// Supplier blacklist activations after repeated failures
  /// (hardening active only).
  std::uint64_t suppliers_blacklisted = 0;
  /// Stall episodes: a started node transitioning from clean playback
  /// into a run of rounds with missed segments.
  std::uint64_t stall_episodes = 0;
  /// Node-rounds spent inside stall episodes (episode length mass —
  /// stall_rounds / stall_episodes is the mean recovery time in
  /// periods).
  std::uint64_t stall_rounds = 0;
};

/// Element-wise sum — merging counters across experiment replications
/// (and, inside a session, merging per-shard stats deltas in shard
/// order after a fork/join round batch).
SessionStats& operator+=(SessionStats& lhs, const SessionStats& rhs) noexcept;
[[nodiscard]] SessionStats operator+(SessionStats lhs, const SessionStats& rhs) noexcept;

/// Estimated per-node state footprint, for sizing large sessions (the
/// 100k-node goal): where the bytes live once buffers saturate.
/// Estimates count container capacity, not malloc overhead.
struct MemoryFootprint {
  std::size_t nodes = 0;           ///< nodes measured (alive and dead)
  std::size_t buffer_bytes = 0;    ///< stream buffers (BitWindow words)
  std::size_t neighbor_bytes = 0;  ///< neighbor sets + overheard lists
  std::size_t dht_bytes = 0;       ///< peer tables + VoD backup stores
  std::size_t inflight_bytes = 0;  ///< transfer/prefetch bookkeeping maps
  /// Per-container split of the section totals above (the README
  /// budget table and the footprint-regression triage read these).
  std::size_t neighbor_set_bytes = 0;  ///< of neighbor_bytes
  std::size_t overheard_bytes = 0;     ///< of neighbor_bytes
  std::size_t peer_table_bytes = 0;    ///< of dht_bytes
  std::size_t backup_bytes = 0;        ///< of dht_bytes
  std::size_t transfer_map_bytes = 0;  ///< of inflight_bytes
  std::size_t prefetch_map_bytes = 0;  ///< of inflight_bytes
  std::size_t tag_set_bytes = 0;       ///< of inflight_bytes
  std::size_t rate_table_bytes = 0;    ///< of inflight_bytes
  std::size_t retry_map_bytes = 0;     ///< of inflight_bytes (hardening)
  std::size_t blacklist_bytes = 0;     ///< of inflight_bytes (hardening)
  /// Pending-work containers of the engine itself: the event queue's
  /// slot pool and heap plus the network's pending quantized delivery
  /// buckets. Deliberately NOT part of total_bytes(): the
  /// per-node budgets measure per-node state, and engine memory scales
  /// with in-flight work rather than with membership.
  std::size_t engine_bytes = 0;
  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return buffer_bytes + neighbor_bytes + dht_bytes + inflight_bytes;
  }
  [[nodiscard]] double per_node_bytes() const noexcept {
    return nodes == 0 ? 0.0
                      : static_cast<double>(total_bytes()) /
                            static_cast<double>(nodes);
  }
};

class Session : private net::DeliveryHost {
 public:
  Session(const SystemConfig& config, const trace::TraceSnapshot& snapshot);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  /// Runs the simulation until `duration` seconds of virtual time.
  void run(SimTime duration);

  /// Ends source emission and every periodic tick (node rounds,
  /// sampling, churn). Messages already in flight still land, so
  /// simulator().run_all() afterwards drains the session.
  void stop();

  // --- results ---------------------------------------------------------
  [[nodiscard]] const metrics::ContinuityTracker& continuity() const noexcept {
    return continuity_;
  }
  [[nodiscard]] const metrics::SeriesCollector& collector() const noexcept {
    return collector_;
  }
  [[nodiscard]] const net::TrafficAccount& traffic() const noexcept {
    return network_.traffic();
  }
  /// Aggregate counters. The drop counters' source of truth is the
  /// Network (filters run inside delivery dispatch, including worker
  /// shards; the fault injector sits on the send path); they are
  /// mirrored here lazily so the delivery hot path carries no extra
  /// write.
  [[nodiscard]] const SessionStats& stats() const noexcept {
    stats_.deliveries_dropped = network_.dropped();
    stats_.deliveries_lost = network_.fault_lost();
    stats_.deliveries_partitioned = network_.fault_partitioned();
    return stats_;
  }
  /// Current per-node state footprint (see MemoryFootprint). For static
  /// scenarios the end-of-run value is the steady-state peak: buffers
  /// saturate within one capacity window and stay full.
  [[nodiscard]] MemoryFootprint memory_footprint() const;
  /// Resolved intra-session worker thread count.
  [[nodiscard]] unsigned threads() const noexcept { return exec_.threads(); }
  /// Materializes the observability snapshot (profiler totals, drained
  /// trace, settled counters plus session/engine/network mirrors).
  /// Returns nullptr when SystemConfig::obs left every pillar off.
  /// Settling drains the counter lanes, so call once, after run().
  [[nodiscard]] std::shared_ptr<const obs::ObsReport> obs_report();

  // --- introspection -----------------------------------------------------
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] const dht::IdSpace& space() const noexcept { return space_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] Node& node(std::size_t index) { return *nodes_.at(index); }
  [[nodiscard]] const Node& node(std::size_t index) const { return *nodes_.at(index); }
  [[nodiscard]] SegmentId emitted() const noexcept { return emitted_; }
  /// Index of the alive node holding `id`; nullopt when no alive node
  /// does (never issued, departed, or crashed). One table load.
  [[nodiscard]] std::optional<std::size_t> index_of(NodeId id) const;
  [[nodiscard]] const dht::RingDirectory& directory() const noexcept { return directory_; }
  /// DHT pre-fetch operations still referenced by a pending hop or
  /// reply (0 once the event queue has drained).
  [[nodiscard]] std::size_t live_prefetch_ops() const noexcept {
    return prefetch_ops_.size() - free_prefetch_ops_.size();
  }

  /// Source node (session index 0).
  [[nodiscard]] const Node& source() const { return *nodes_.front(); }

 private:
  /// One DHT pre-fetch: `backup_replicas` lookups race to the segment's
  /// replica owners and the best reply wins. Pooled by index; a slot
  /// returns to the pool when the last hop or reply holding it dies,
  /// delivered or dropped.
  struct PrefetchOp {
    std::uint32_t origin = 0;
    std::uint32_t refs = 0;  ///< live PrefetchRefs
    SegmentId segment = kInvalidSegment;
    unsigned pending_replies = 0;
    double best_rate = -1.0;
    std::optional<std::size_t> best_owner;
  };

  /// Counted reference to a pooled PrefetchOp, carried by the DHT hop
  /// and reply captures. The captures reach the Session through it, so
  /// the reference costs them nothing beyond the op index. The count is
  /// not atomic: launches, hops and replies run only on the serial send
  /// path, on the session's run thread (Debug builds assert it).
  class PrefetchRef {
   public:
    PrefetchRef(Session* session, std::uint32_t op) noexcept
        : session_(session), op_(op) {
      session_->retain_prefetch(op_);
    }
    PrefetchRef(const PrefetchRef& other) noexcept : PrefetchRef(other.session_, other.op_) {}
    PrefetchRef(PrefetchRef&& other) noexcept : session_(other.session_), op_(other.op_) {
      other.session_ = nullptr;
    }
    PrefetchRef& operator=(const PrefetchRef&) = delete;
    PrefetchRef& operator=(PrefetchRef&&) = delete;
    ~PrefetchRef() {
      if (session_ != nullptr) session_->release_prefetch(op_);
    }

    [[nodiscard]] Session& session() const noexcept { return *session_; }
    [[nodiscard]] PrefetchOp& op() const noexcept { return session_->prefetch_ops_[op_]; }

   private:
    Session* session_;
    std::uint32_t op_;
  };

  void retain_prefetch(std::uint32_t op) noexcept {
    assert(std::this_thread::get_id() == run_thread_ && "prefetch pool off the run thread");
    ++prefetch_ops_[op].refs;
  }
  void release_prefetch(std::uint32_t op) noexcept {
    assert(std::this_thread::get_id() == run_thread_ && "prefetch pool off the run thread");
    if (--prefetch_ops_[op].refs == 0) free_prefetch_ops_.push_back(op);
  }

  // --- construction -----------------------------------------------------
  void build_nodes(const trace::TraceSnapshot& snapshot);
  void assign_initial_neighbors(const trace::TraceSnapshot& snapshot);
  void populate_initial_dht();
  void start_processes();
  [[nodiscard]] double sample_rate(double lo, double hi, bool skewed);
  [[nodiscard]] double sample_ping();

  // --- per-round behaviour ------------------------------------------------
  //
  // A node round is split into four phases at the RoundScheduler batch
  // boundary (all ticks due at one instant):
  //   prepare-local — per-node maintenance that touches ONLY the node's
  //             own state (supply folding, transfer/prefetch timeout
  //             sweep, playback, bookkeeping compaction, the receive
  //             side of the buffer-map exchange); FORKED across the
  //             executor's shards. Anything it may not apply from a
  //             worker — stats deltas, rate decays, playback starts,
  //             wire-cost tallies — is recorded in a per-shard
  //             PrepareShard and settled at the join, in shard order.
  //             Draws come from per-tick RNG streams, never the shared
  //             session RNG.
  //   prepare-link — overlay link maintenance (neighbor repair), which
  //             mutates SHARED link state reciprocally; serial, batch
  //             order, after the prepare-local join.
  //   plan    — the expensive read-only half (candidate building,
  //             Algorithm 1 / rarest-first, prefetch target selection);
  //             forked; stats deltas and join-deferred operations (the
  //             mid-round retry's schedule_at) buffered per shard.
  //   commit  — applies plans (transfer bookkeeping, network sends, DHT
  //             prefetch launches); serial, batch order, after the
  //             shard buffers merged in shard order.
  // The same four-phase path runs at every thread count, so results
  // are bit-identical for threads = 1, 2, 4, 8.
  //
  // Data-ownership contract of the forked prepare-local phase: a shard
  // writes only the states of its own nodes (buffers, round stats,
  // in-flight tables, neighbor supply fields, overheard lists) plus its
  // private PrepareShard. Cross-node reads are limited to state FROZEN
  // for the whole batch: liveness flags and the id→index map (mutated
  // only by churn ticks, which batch alone), neighbor-set MEMBERSHIP
  // (repair runs serially afterwards), other nodes' buffer windows
  // (mutated only by delivery events) and started() flags (playback
  // starts are deferred to the join precisely so these stay frozen).
  void on_source_emit();
  /// RoundScheduler batch callback: each user is a node index or a
  /// reserved tag.
  void on_round_batch(const std::vector<std::size_t>& users);
  void run_round_batch(const std::vector<std::size_t>& users);

  /// Plan computed by the parallel phase of a round batch.
  struct RoundPlan {
    bool scheduled = false;  ///< sched holds a valid plan
    ScheduleResult sched;
    std::vector<SegmentId> prefetch;  ///< quota-capped launch list
  };
  struct PrefetchPlan {
    std::vector<SegmentId> launch;
    bool suppressed = false;  ///< case 3: N_miss > l
  };

  /// Per-shard scratch for the forked prepare-local sub-phase:
  /// everything a worker shard may not apply to shared state is
  /// recorded here and settled by apply_prepare_shard() at the join,
  /// in shard order — so the applied sequence is a pure function of
  /// (batch, shard structure), never of the thread count.
  struct PrepareShard {
    /// (node index, supplier) whose rate estimate decays after a
    /// transfer timeout, in sweep order.
    std::vector<std::pair<std::uint32_t, NodeId>> rate_decays;
    /// (node index, anchor segment) playback starts decided this
    /// batch. Deferred so every shard reads batch-start started()
    /// flags — the read-only snapshot contract of prepare-local.
    std::vector<std::pair<std::uint32_t, SegmentId>> playback_starts;
    /// Wire tallies for the exchange's emission side; bulk-charged at
    /// the join (bit-identical to per-message charging).
    std::uint64_t buffer_map_messages = 0;
    std::uint64_t membership_messages = 0;
    void reset() noexcept {
      rate_decays.clear();
      playback_starts.clear();
      buffer_map_messages = 0;
      membership_messages = 0;
    }
  };

  /// `obs_shard` routes trace events to the recording worker's ring;
  /// unused when tracing is off.
  void round_prepare_local(std::size_t index, SessionStats& stats,
                           PrepareShard& shard, std::size_t obs_shard);
  void round_prepare_link(std::size_t index);
  /// Settles one shard's deferred prepare records: rate decays, then
  /// playback starts (record order), then the bulk wire charges.
  void apply_prepare_shard(PrepareShard& shard);
  /// Forked planning half of a round. The mid-round retry lands in
  /// `deferred` as a join-deferred operation that calls schedule_at.
  void round_plan(std::size_t index, RoundPlan& plan, SessionStats& stats,
                  std::vector<sim::EventAction>& deferred);
  void round_commit(std::size_t index, RoundPlan& plan);

  void repair_neighbors(Node& node);
  void do_playback(Node& node);
  /// Read-only startup decision (forked): returns the anchor segment
  /// when the node should start playback this round. The start itself
  /// is applied at the join.
  [[nodiscard]] std::optional<SegmentId> plan_playback_start(const Node& node) const;
  /// Forked receive half of the per-round buffer-map exchange: the
  /// membership piggyback (own-state writes only); wire costs are
  /// tallied into `shard` and charged at the join.
  void exchange_buffer_maps(Node& node, util::Rng& tick_rng, PrepareShard& shard);
  /// Read-only planning half of a scheduling round. Returns false when
  /// nothing is schedulable; `seen` reports candidates considered.
  [[nodiscard]] bool plan_scheduling(const Node& node, double budget_fraction,
                                     ScheduleResult& out, std::uint64_t& seen) const;
  void commit_scheduling(Node& node, const ScheduleResult& result);
  /// Fused plan+commit, for the mid-round top-up retry (event context).
  void run_scheduling(Node& node, double budget_fraction = 1.0);
  /// Read-only prefetch target selection; `planned` is this round's
  /// scheduling plan (its bookings are not yet in transfer_pending).
  [[nodiscard]] PrefetchPlan plan_prefetch(const Node& node,
                                           const ScheduleResult* planned) const;
  void refresh_dht_peers(Node& node);
  /// Draws a round phase and returns the ABSOLUTE first-tick instant:
  /// the next occurrence of the drawn bucket's grid time (joiners merge
  /// bit-exactly into an existing cohort's batch). The phase is one of
  /// kRoundPhaseBuckets (session.cpp) evenly spaced buckets.
  [[nodiscard]] SimTime round_phase(util::Rng& rng) const;
  /// GridMedia-style relay: push a freshly received segment onward.
  void push_relay(Node& node, SegmentId id);

  // --- transfers -----------------------------------------------------------
  //
  // The transfer-plane handlers run through the network's sharded
  // delivery path: in quantized mode they may execute on a worker
  // shard (receiver-shard ownership contract — own-node writes plus
  // the per-shard stats scratch behind delivery_stats(ctx); sends,
  // relays and shared-RNG work deferred through the context), in
  // continuous mode the context is immediate and they execute exactly
  // as the serial forms did. The DHT/prefetch chain and churn handover
  // stay on the serial send path.
  void handle_segment_request(std::size_t supplier, std::size_t requester,
                              std::vector<SegmentId> ids, net::DeliveryContext& ctx);
  /// Books the supplier's uplink inline (supplier-own state) and
  /// defers the wire send through `ctx` when given (worker shards must
  /// not touch the queue); ctx == nullptr sends directly (serial
  /// callers: push relays at the join, the DHT prefetch path).
  void start_fluid_transfer(std::size_t supplier, std::size_t requester, SegmentId id,
                            net::MessageType type, TransferKind kind,
                            net::DeliveryContext* ctx = nullptr);
  void deliver_segment(std::size_t receiver, SegmentId id, TransferKind kind,
                       NodeId supplier, double transfer_duration,
                       net::DeliveryContext& ctx);

  // --- DHT / prefetch -------------------------------------------------------
  void launch_prefetch(std::size_t origin, SegmentId segment);
  void route_hop(std::size_t current, NodeId target, std::size_t origin,
                 PrefetchRef op, unsigned hops);
  void finish_locate(std::size_t terminal, PrefetchRef op);
  void on_prefetch_reply(PrefetchOp& op, std::size_t owner, bool has_segment,
                         double rate);
  void handle_prefetch_request(std::size_t owner, std::size_t origin, SegmentId segment);

  // --- churn / faults -----------------------------------------------------
  void on_churn_tick();
  void kill_node(std::size_t index, bool graceful);
  void do_join();
  /// Crash-stop event from the FaultPlan: `fraction` of the alive
  /// non-source population fails abruptly (no DHT handover — the
  /// ChurnPlan::abrupt_leavers path), victims drawn from a for_tick
  /// stream keyed on the event instant.
  void on_fault_crash(double fraction);
  /// Sharded in-flight abandon sweep after a batch of deaths (shared
  /// between churn ticks and crash-stop events).
  void drop_transfers_from_dead(const std::vector<NodeId>& dead_ids);

  // --- metrics -----------------------------------------------------------
  void on_sample_tick();

  // --- observability -------------------------------------------------------
  /// Serially grows the obs layer's per-shard structures (trace rings,
  /// counter lanes) before a fork whose workers will record. No-op
  /// when the corresponding pillar is off.
  void obs_ensure_shards(std::size_t shards);

  // --- helpers -----------------------------------------------------------
  /// The engine config_ selects, as the simulator's construction
  /// argument: windowed when config_.windowed_engine(), exact
  /// otherwise.
  [[nodiscard]] sim::Simulator::LaxConfig engine_config() const;

  // net::DeliveryHost: a forked delivery bucket writes per-shard stats,
  // reduced in shard order at the join — the same deferred-merge
  // contract the round phases use.
  [[nodiscard]] bool reachable(std::uint32_t to) const override;
  void before_fork(std::size_t shards) override;
  void after_join(std::size_t shards) override;
  /// The stats a delivery handler writes: its shard's scratch when
  /// forked, stats_ itself in immediate mode.
  [[nodiscard]] SessionStats& delivery_stats(const net::DeliveryContext& ctx);
  [[nodiscard]] bool in_time(const Node& node, SegmentId id, SimTime now) const;
  void store_backup_if_responsible(Node& node, SegmentId id);

  SystemConfig config_;
  dht::IdSpace space_;
  /// DHT lookup hop limit: ceil(space_.hop_upper_bound()) + 2.
  unsigned hop_cap_;
  /// Thread that owns the session: constructs it, then runs it.
  std::thread::id run_thread_ = std::this_thread::get_id();
  /// PrefetchOp pool and its free indices. Declared before sim_: pending
  /// hop and reply events release their ops when the queue is destroyed.
  std::vector<PrefetchOp> prefetch_ops_;
  std::vector<std::uint32_t> free_prefetch_ops_;
  /// Fork/join worker pool for round batches, per-period sweeps and the
  /// windowed engine's collection forks (declared before sim_ and
  /// network_, which hold a pointer and a reference to it).
  sim::parallel::ParallelExecutor exec_;
  sim::Simulator sim_;
  net::Network network_;
  /// The urgent line's inputs, derived from the trace at construction
  /// (mean one-hop latency, node count) and handed to every node.
  const UrgentLineConfig urgent_;
  /// Compiled FaultPlan (null when the plan is inert — the network
  /// then never consults it and the send path is bit-identical to a
  /// fault-free build).
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  /// Cached config_.harden: hardening consults ride hot scheduling
  /// loops, and the zero-fault path must stay branch-cheap.
  const bool hardened_;
  dht::RingDirectory directory_;
  overlay::RendezvousServer rp_;
  overlay::ChurnPlanner churn_;
  util::Rng rng_;

  /// Reserved RoundScheduler tags for the session-wide per-period
  /// ticks batched alongside the node rounds.
  static constexpr std::size_t kSampleTickUser = static_cast<std::size_t>(-1);
  static constexpr std::size_t kChurnTickUser = static_cast<std::size_t>(-2);

  std::vector<std::unique_ptr<Node>> nodes_;
  /// All scheduling-period ticks — node rounds, metric sampling, churn
  /// — batched behind one pending simulator event. Handles are indexed
  /// by session index; join/leave is an O(1) add/remove.
  sim::RoundScheduler rounds_;
  std::vector<sim::RoundScheduler::Handle> round_handles_;
  /// The reserved sampling and churn ticks (churn stays empty when
  /// churn is disabled).
  sim::RoundScheduler::Handle sample_tick_;
  sim::RoundScheduler::Handle churn_tick_;
  /// Source emission: one participant ticking every 1/p seconds.
  sim::RoundScheduler emission_;
  sim::RoundScheduler::Handle emission_tick_;
  /// Dense id -> session index over the whole id space (4 B per id),
  /// kNoIndex where no alive node holds the id. Written only by
  /// build_nodes, do_join and kill_node, which clears an entry together
  /// with the node's liveness bit, so the table is exactly the alive set.
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};
  std::vector<std::uint32_t> index_of_;

  /// Fork/join scratch, reused across batches. plans_ is indexed by
  /// batch position (each shard writes a disjoint range); the shard-
  /// indexed buffers merge in shard order after the join: the plan
  /// shards' join-deferred operations run in shard order, record order
  /// within a shard, so their schedule_at calls draw sequence numbers
  /// exactly as serial execution would.
  std::vector<RoundPlan> plans_;
  std::vector<SessionStats> shard_stats_;
  std::vector<std::vector<sim::EventAction>> shard_deferred_;
  std::vector<PrepareShard> prepare_shards_;
  /// Per-shard stats deltas for forked delivery-bucket dispatches
  /// (quantized mode). Separate from shard_stats_ on purpose: a bucket
  /// proxy is an ordinary event and never overlaps a round batch, but
  /// sharing the buffer would couple two unrelated fork/join sites.
  std::vector<SessionStats> delivery_shard_stats_;

  /// Deterministic observability (null = the pillar is disabled, which
  /// leaves only pointer checks on the hot paths). Obs-owned state is
  /// the ONLY state these ever write — no RNG draws, no node or queue
  /// mutations — so enabling them cannot move a fingerprint; CI diffs
  /// scenario fingerprints obs-on vs obs-off at threads 1 and 4.
  std::unique_ptr<obs::PhaseProfiler> profiler_;
  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<obs::CounterRegistry> obs_counters_;
  /// Registry ids for the session's per-shard counters (valid only
  /// when obs_counters_ is set).
  std::uint32_t ctr_prepare_nodes_ = 0;
  std::uint32_t ctr_plan_nodes_ = 0;
  std::uint32_t ctr_pull_requests_ = 0;
  std::uint32_t ctr_segments_delivered_ = 0;
  std::uint32_t ctr_stall_transitions_ = 0;

  SegmentId emitted_ = 0;
  /// Mutable: stats() lazily mirrors Network::dropped() (see stats()).
  mutable SessionStats stats_;
  metrics::ContinuityTracker continuity_;
  metrics::SeriesCollector collector_;
  net::TrafficAccount last_traffic_snapshot_;
};

/// Computes the ID-space size a trace needs: at least the configured
/// size, doubled until initial occupancy stays below ~85%.
[[nodiscard]] std::uint64_t fit_id_space(std::uint64_t configured, std::size_t nodes);

}  // namespace continu::core
