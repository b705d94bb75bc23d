#pragma once
// Scenario-declared fault plans: the deterministic adversity a session
// runs under. A FaultPlan is pure data — scenarios declare one, the
// session compiles it into a FaultInjector wired to the Network, and
// every injected decision is drawn from Rng::for_tick streams so the
// fingerprint oracle stays byte-identical at threads 1/2/4/8.
//
// An empty (default) plan is inert by construction: no injector is
// installed, no RNG stream is consumed, and the simulation is
// bit-identical to a build without the fault subsystem.

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace continu::fault {

/// Crash-stop event: at `time`, `fraction` of the alive non-source
/// nodes fail abruptly — no DHT handover, same path as
/// ChurnPlan::abrupt_leavers. Victims are drawn from a for_tick stream
/// keyed on the event time.
struct CrashEvent {
  SimTime time = 0.0;
  double fraction = 0.0;
};

/// Regional partition: during [start, heal) the session splits into
/// `regions` groups by session index modulo; every cross-region wire
/// message is dropped. The heal is the window end — no event fires.
struct PartitionEvent {
  SimTime start = 0.0;
  SimTime heal = 0.0;
  unsigned regions = 2;
};

/// Transient latency spike: during [start, start + duration) every
/// wire message gains `extra_ms` of one-way latency, layered on the
/// LatencyModel's output (and, in quantized mode, applied before the
/// grid snap so bucketing physics are unchanged).
struct LatencySpike {
  SimTime start = 0.0;
  double duration = 0.0;
  double extra_ms = 0.0;
};

/// The full fault schedule for one session. All fields compose; the
/// default instance declares nothing and costs nothing.
struct FaultPlan {
  /// Per-message iid loss probability on every wire send.
  double loss_rate = 0.0;

  /// Burst-loss episodes: during the first `burst_duration` seconds of
  /// every `burst_period`-second cycle, the loss probability rises to
  /// max(loss_rate, burst_rate). burst_period == 0 disables bursts.
  double burst_rate = 0.0;
  double burst_period = 0.0;
  double burst_duration = 0.0;

  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;
  std::vector<LatencySpike> spikes;

  [[nodiscard]] bool active() const noexcept {
    return loss_rate > 0.0 || (burst_period > 0.0 && burst_rate > 0.0) ||
           !crashes.empty() || !partitions.empty() || !spikes.empty();
  }
};

/// Hardening policy for the pull/prefetch planes: bounded
/// retry-with-backoff on timed-out transfers and a decaying supplier
/// blacklist after repeated failures. A hardened session
/// (SystemConfig::harden) runs the default policy; the Node hardening
/// functions take it as a parameter so tests can pass other schedules.
struct RetryPolicy {
  /// Backoff after the k-th consecutive timeout of one segment:
  /// min(backoff_base * 2^(k-1), backoff_cap) seconds. Attempts are
  /// capped at max_attempts; further failures keep the cap.
  double backoff_base = 0.5;
  double backoff_cap = 8.0;
  std::uint32_t max_attempts = 6;

  /// A supplier accumulates one strike per timed-out transfer it was
  /// serving. At `blacklist_strikes` strikes its offers are ignored for
  /// min(blacklist_base * 2^(strikes - blacklist_strikes),
  /// blacklist_cap) seconds; entries expire (strike slate wiped) once
  /// their window passes, so the blacklist decays on success or quiet.
  std::uint32_t blacklist_strikes = 3;
  double blacklist_base = 2.0;
  double blacklist_cap = 16.0;
};

}  // namespace continu::fault
