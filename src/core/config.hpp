#pragma once
// System configuration — every paper parameter in one place, with the
// paper's defaults (Section 5.2 simulation methodology).

#include <cstdint>

#include "fault/fault_plan.hpp"
#include "obs/obs_config.hpp"
#include "overlay/churn.hpp"
#include "util/types.hpp"

namespace continu::core {

/// Which data scheduler a session runs.
enum class SchedulerKind {
  /// ContinuStreaming: priority = max(urgency, rarity) with
  /// rarity = prod(p_ij / B)  (paper eqs. 1-3) + DHT pre-fetch.
  kContinuStreaming,
  /// CoolStreaming baseline: rarest-first (rarity = 1/n_i), no DHT.
  kCoolStreaming,
  /// GridMedia-style push-pull (paper Section 2): fresh segments are
  /// RELAYED to partners as soon as they are received ("pushing
  /// packets"), pulls fill the holes; no DHT. Reduces latency at the
  /// cost of redundant transmissions.
  kGridMediaPushPull,
};

struct SystemConfig {
  // --- stream parameters -------------------------------------------------
  /// Playback rate p: segments per second (300 Kbps / 30 Kb).
  std::uint64_t playback_rate = 10;
  /// Buffer capacity B in segments (60 s of media).
  std::size_t buffer_capacity = 600;
  /// Scheduling period tau in seconds.
  double scheduling_period = 1.0;
  /// Segments a node must accumulate before starting playback — the
  /// startup cushion that absorbs per-round supply fluctuations. 5 s of
  /// media by default (CoolStreaming-era players buffered 5-120 s).
  std::size_t startup_segments = 50;
  /// How long playback waits (rebuffers) for a missing due segment
  /// before skipping it. Era players wait rather than skip; waiting
  /// also sinks a node to a depth its supply can sustain.
  double stall_patience = 2.0;

  // --- overlay parameters ------------------------------------------------
  /// Connected neighbors M.
  std::size_t connected_neighbors = 5;
  /// Overheard Nodes capacity H.
  std::size_t overheard_capacity = 20;
  /// ID space size N (power of two; paper uses 8192). The session
  /// raises it automatically if the trace needs more room.
  std::uint64_t id_space = 8192;

  // --- bandwidth (segments/second; 1 segment = 30 Kb) ---------------------
  /// Node inbound rate range [10, 33] ~ 300 Kbps - 1 Mbps, mean ~15.
  double inbound_min = 10.0;
  double inbound_max = 33.0;
  /// Whether inbound/outbound rates vary per node ("heterogeneous") or
  /// every node gets the mean ("homogeneous", used by the 5.1 table).
  bool heterogeneous_bandwidth = true;
  /// Outbound arranged "alike" per the paper.
  double outbound_min = 10.0;
  double outbound_max = 33.0;
  /// The source: zero inbound, much larger outbound (I = 100).
  double source_outbound = 100.0;
  /// Push fan-out for the GridMedia-style scheduler: how many partners
  /// a fresh segment is relayed to on receipt.
  std::size_t push_fanout = 2;

  // --- DHT / pre-fetch ---------------------------------------------------
  /// Replicas per segment k.
  unsigned backup_replicas = 4;
  /// Max segments fetched per on-demand invocation l.
  unsigned prefetch_limit = 5;
  /// Average one-hop overlay latency estimate t_hop (seconds) used for
  /// the alpha adaptation step size; the paper estimates ~50 ms.
  double t_hop_estimate = 0.05;
  /// Expected overlay population estimate used in t_fetch (the paper:
  /// "we can set n = N/2 initially; it does not need to be accurate").
  double expected_nodes = 4096.0;

  // --- scheduler / churn ---------------------------------------------------
  SchedulerKind scheduler = SchedulerKind::kContinuStreaming;
  /// Enable churn ("dynamic environment").
  bool churn_enabled = false;
  overlay::ChurnConfig churn{};

  // --- faults / hardening --------------------------------------------------
  /// Deterministic fault schedule (link loss, crash-stop events,
  /// partitions, latency spikes). The default plan is inert: no
  /// injector is installed and the simulation is bit-identical to a
  /// fault-free build.
  fault::FaultPlan fault{};
  /// Retry/backoff + supplier-blacklist hardening for the pull and
  /// prefetch planes. Off by default (zero-fault hot path untouched);
  /// the f*_ scenario families switch it on.
  fault::RetryPolicy retry{};

  // --- observability -------------------------------------------------------
  /// Deterministic observability layer (src/obs/): phase profiler,
  /// structured trace export, counter registry. All off by default;
  /// enabling any pillar never moves a result fingerprint (obs writes
  /// only to obs-owned state — CI diffs fingerprints obs-on vs
  /// obs-off to enforce it).
  obs::ObsConfig obs{};

  // --- neighbor maintenance ----------------------------------------------
  /// Replace a neighbor whose smoothed supply rate is below this many
  /// segments per period (after the grace period).
  double low_supply_threshold = 0.25;
  /// Grace period (seconds) before a neighbor can be judged weak.
  double neighbor_min_age = 10.0;

  // --- run control ---------------------------------------------------------
  std::uint64_t seed = 42;
  /// Intra-session worker threads for the fork/join round executor.
  /// 1 = serial (inline shards), 0 = all hardware threads. Results are
  /// bit-identical for EVERY value — the parallel engine derives
  /// per-tick RNG streams and merges stats/emissions in fixed shard
  /// order, so threads only changes wall-clock time.
  unsigned threads = 1;
  /// Latency quantization grid in milliseconds. 0 = the paper's
  /// continuous pairwise model (every delivery is its own serial
  /// event). Positive (1-5 ms in practice) snaps delivery instants UP
  /// to the grid so co-instant deliveries batch and fork by receiver —
  /// the quantized network mode. Results are bit-identical at every
  /// thread count WITHIN a mode; the two modes are distinct universes
  /// (see the committed divergence study for the metric deltas).
  double latency_grid_ms = 0.0;
  /// Event engine. Two exist:
  ///   exact (default) — one event queue executing in global
  ///     (time, seq) order; the oracle every fingerprint refers to.
  ///   windowed(k) — sharded_queue on, queue_skew_buckets = k >= 1 and
  ///     a positive latency_grid_ms: the queue drains in k-grid-bucket
  ///     windows whose per-shard pops fork across the session executor
  ///     (docs/DETERMINISM.md contract 7). Deterministic and
  ///     thread-count invariant per k, but each k is its own universe.
  /// Any other combination runs the exact engine.
  bool sharded_queue = false;
  unsigned queue_skew_buckets = 0;

  /// True when this config selects the windowed engine.
  [[nodiscard]] bool windowed_engine() const noexcept {
    return sharded_queue && queue_skew_buckets > 0 && latency_grid_ms > 0.0;
  }

  /// Convenience: mean inbound rate (the lambda of Section 5.1). The
  /// rate distribution is a truncated exponential on [min, max] with
  /// mean at min + (max-min)/4.6 ~ 15 segments/s for the paper's
  /// 300 Kbps - 1 Mbps range (average 450 Kbps).
  [[nodiscard]] double mean_inbound() const noexcept {
    return inbound_min + (inbound_max - inbound_min) / 4.6;
  }

  /// Preset: the paper's CoolStreaming baseline on identical substrate.
  [[nodiscard]] SystemConfig as_coolstreaming() const noexcept {
    SystemConfig c = *this;
    c.scheduler = SchedulerKind::kCoolStreaming;
    return c;
  }
};

}  // namespace continu::core
