#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "analysis/continuity_model.hpp"
#include "dht/member_rank.hpp"
#include "obs/counters.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace_sink.hpp"
#include "trace/topology.hpp"

namespace continu::core {

namespace {

/// Every SessionStats field with its obs counter name, in declaration
/// order: operator+= and the obs_report mirrors both walk this table.
struct StatsField {
  const char* name;
  std::uint64_t SessionStats::*field;
};
constexpr StatsField kStatsFields[] = {
    {"session.segments_emitted", &SessionStats::segments_emitted},
    {"session.segments_delivered", &SessionStats::segments_delivered},
    {"session.duplicate_deliveries", &SessionStats::duplicate_deliveries},
    {"session.requests_sent", &SessionStats::requests_sent},
    {"session.segments_booked", &SessionStats::segments_booked},
    {"session.segments_refused", &SessionStats::segments_refused},
    {"session.candidates_seen", &SessionStats::candidates_seen},
    {"session.candidates_unassigned", &SessionStats::candidates_unassigned},
    {"session.prefetch_launched", &SessionStats::prefetch_launched},
    {"session.prefetch_succeeded", &SessionStats::prefetch_succeeded},
    {"session.prefetch_no_replica", &SessionStats::prefetch_no_replica},
    {"session.prefetch_suppressed", &SessionStats::prefetch_suppressed},
    {"session.segments_pushed", &SessionStats::segments_pushed},
    {"session.dht_route_messages", &SessionStats::dht_route_messages},
    {"session.dht_route_failures", &SessionStats::dht_route_failures},
    {"session.joins", &SessionStats::joins},
    {"session.graceful_leaves", &SessionStats::graceful_leaves},
    {"session.abrupt_leaves", &SessionStats::abrupt_leaves},
    {"session.neighbor_replacements", &SessionStats::neighbor_replacements},
    {"session.transfer_timeouts", &SessionStats::transfer_timeouts},
    {"session.mixed_batch_fallbacks", &SessionStats::mixed_batch_fallbacks},
    {"session.deliveries_dropped", &SessionStats::deliveries_dropped},
    {"session.deliveries_lost", &SessionStats::deliveries_lost},
    {"session.deliveries_partitioned", &SessionStats::deliveries_partitioned},
    {"session.fault_crashes", &SessionStats::fault_crashes},
    {"session.retry_backoffs", &SessionStats::retry_backoffs},
    {"session.suppliers_blacklisted", &SessionStats::suppliers_blacklisted},
    {"session.stall_episodes", &SessionStats::stall_episodes},
    {"session.stall_rounds", &SessionStats::stall_rounds},
};
static_assert(std::size(kStatsFields) * sizeof(std::uint64_t) == sizeof(SessionStats));

/// Churn executes just before the period boundary.
constexpr double kChurnPhase = 0.95;

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

SessionStats& operator+=(SessionStats& lhs, const SessionStats& rhs) noexcept {
  for (const StatsField& f : kStatsFields) lhs.*f.field += rhs.*f.field;
  return lhs;
}

SessionStats operator+(SessionStats lhs, const SessionStats& rhs) noexcept {
  lhs += rhs;
  return lhs;
}

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
  std::vector<std::uint32_t> adjacency;  // reused for every node
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    const auto& trace_adjacency = topology.neighbors(static_cast<std::uint32_t>(i));
    adjacency.assign(trace_adjacency.begin(), trace_adjacency.end());
    rng_.shuffle(adjacency);
    for (const auto peer_index : adjacency) {
      if (node.neighbors().full()) break;
      Node& peer = *nodes_[peer_index];
      if (peer.neighbors().full()) continue;
      const double lat =
          topology.latency_ms(static_cast<std::uint32_t>(i), peer_index);
      if (node.neighbors().contains(peer.id())) continue;
      link_partners(node, peer, lat, /*now=*/0.0);
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

void Session::before_fork(std::size_t shards) {
  delivery_shard_stats_.assign(shards, SessionStats{});
  obs_ensure_shards(shards);
}

void Session::after_join(std::size_t) {
  sim::parallel::reduce_in_order(delivery_shard_stats_, stats_);
}

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
    for (const StatsField& f : kStatsFields) put(f.name, s.*f.field);
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

