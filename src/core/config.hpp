#pragma once
// System parameters. The paper fixes most of them in Section 5.2's
// simulation methodology and no experiment varies them: those are the
// constants below. SystemConfig holds only what some workload sets.

#include <cstddef>
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

// --- fixed parameters: Section 5.2 values and model choices -------------
// No workload varies these.

// Stream.
/// Buffer capacity B in segments (60 s of media).
inline constexpr std::size_t kBufferCapacity = 600;
/// Scheduling period tau in seconds.
inline constexpr double kSchedulingPeriod = 1.0;
/// Segments a node must accumulate before starting playback — the
/// startup cushion that absorbs per-round supply fluctuations. 5 s of
/// media (CoolStreaming-era players buffered 5-120 s).
inline constexpr std::size_t kStartupSegments = 50;
/// How long playback waits (rebuffers) for a missing due segment
/// before skipping it. Era players wait rather than skip; waiting
/// also sinks a node to a depth its supply can sustain.
inline constexpr double kStallPatience = 2.0;

// Overlay.
/// Overheard Nodes capacity H.
inline constexpr std::size_t kOverheardCapacity = 20;
/// ID space size N (power of two; the paper uses 8192). The session
/// raises it automatically if the trace needs more room.
inline constexpr std::uint64_t kIdSpace = 8192;

// Bandwidth (segments/second; 1 segment = 30 Kb).
/// Node inbound rate range [10, 33] ~ 300 Kbps - 1 Mbps, mean ~15.
inline constexpr double kInboundMin = 10.0;
inline constexpr double kInboundMax = 33.0;
/// Outbound arranged "alike" per the paper.
inline constexpr double kOutboundMin = 10.0;
inline constexpr double kOutboundMax = 33.0;
/// The source: zero inbound, much larger outbound (I = 100).
inline constexpr double kSourceOutbound = 100.0;
/// Mean inbound rate (the lambda of Section 5.1). The rate
/// distribution is a truncated exponential on [min, max] with mean at
/// min + (max-min)/4.6 ~ 15 segments/s for the paper's 300 Kbps -
/// 1 Mbps range (average 450 Kbps).
inline constexpr double kMeanInbound = kInboundMin + (kInboundMax - kInboundMin) / 4.6;
/// Push fan-out for the GridMedia-style scheduler: how many partners
/// a fresh segment is relayed to on receipt.
inline constexpr std::size_t kPushFanout = 2;

// Neighbor maintenance.
/// Replace a neighbor whose smoothed supply rate is below this many
/// segments per period (after the grace period).
inline constexpr double kLowSupplyThreshold = 0.25;
/// Grace period (seconds) before a neighbor can be judged weak.
inline constexpr double kNeighborMinAge = 10.0;

// --- the config: what a workload sets ---------------------------------------

struct SystemConfig {
  // --- stream / overlay ----------------------------------------------------
  /// Playback rate p: segments per second (300 Kbps / 30 Kb).
  std::uint64_t playback_rate = 10;
  /// Connected neighbors M.
  std::size_t connected_neighbors = 5;
  /// Whether inbound/outbound rates vary per node ("heterogeneous") or
  /// every node gets the mean ("homogeneous", used by the 5.1 table).
  bool heterogeneous_bandwidth = true;

  // --- DHT / pre-fetch ---------------------------------------------------
  // The urgent line's t_hop and t_fetch (the paper's "rough
  // estimates") are not settable: the session derives them from the
  // trace's mean one-hop latency and node count.
  /// Replicas per segment k.
  unsigned backup_replicas = 4;
  /// Max segments fetched per on-demand invocation l.
  unsigned prefetch_limit = 5;

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
  /// Retry/backoff + supplier-blacklist hardening (the default
  /// fault::RetryPolicy) for the pull and prefetch planes. Off by
  /// default (zero-fault hot path untouched); the f*_ scenario
  /// families switch it on.
  bool harden = false;

  // --- observability -------------------------------------------------------
  /// Deterministic observability layer (src/obs/): phase profiler,
  /// structured trace export, counter registry. All off by default;
  /// enabling any pillar never moves a result fingerprint (obs writes
  /// only to obs-owned state — CI diffs fingerprints obs-on vs
  /// obs-off to enforce it).
  obs::ObsConfig obs{};

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

  /// Preset: the paper's CoolStreaming baseline on identical substrate.
  [[nodiscard]] SystemConfig as_coolstreaming() const noexcept {
    SystemConfig c = *this;
    c.scheduler = SchedulerKind::kCoolStreaming;
    return c;
  }
};

}  // namespace continu::core
