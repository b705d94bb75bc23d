#include "runner/scenario.hpp"

#include <algorithm>

namespace continu::runner {

core::SystemConfig Scenario::make_config(std::uint64_t seed) const {
  core::SystemConfig config;
  config.seed = seed;
  config.scheduler = scheduler;
  config.backup_replicas = backup_replicas;
  config.prefetch_limit = prefetch_limit;
  config.connected_neighbors = connected_neighbors;
  config.heterogeneous_bandwidth = heterogeneous_bandwidth;
  config.playback_rate = playback_rate;
  config.latency_grid_ms = latency_grid_ms;
  config.fault = fault;
  config.harden = harden;
  if (churn) {
    config.churn_enabled = true;
    config.churn.leave_fraction = churn_fraction;
    config.churn.join_fraction = churn_fraction;
    config.churn.graceful_fraction = graceful_fraction;
  }
  return config;
}

Scenario Scenario::with(const ScenarioOverrides& o, std::string derived_name) const {
  Scenario s = *this;
  s.name = std::move(derived_name);
  if (o.node_count) s.node_count = *o.node_count;
  if (o.churn) s.churn = *o.churn;
  if (o.churn_fraction) {
    s.churn_fraction = *o.churn_fraction;
    s.churn = *o.churn_fraction > 0.0;  // rate implies the toggle
  }
  if (o.graceful_fraction) s.graceful_fraction = *o.graceful_fraction;
  if (o.playback_rate) s.playback_rate = *o.playback_rate;
  if (o.connected_neighbors) s.connected_neighbors = *o.connected_neighbors;
  if (o.backup_replicas) s.backup_replicas = *o.backup_replicas;
  if (o.prefetch_limit) s.prefetch_limit = *o.prefetch_limit;
  if (o.scheduler) s.scheduler = *o.scheduler;
  if (o.latency_grid_ms) s.latency_grid_ms = *o.latency_grid_ms;
  if (o.fault) s.fault = *o.fault;
  if (o.harden) s.harden = *o.harden;
  if (o.trace_seed) s.trace_seed = *o.trace_seed;
  if (o.duration) s.duration = *o.duration;
  if (o.stable_from) s.stable_from = *o.stable_from;
  return s;
}

trace::GeneratorConfig Scenario::make_trace() const {
  trace::GeneratorConfig tc;
  tc.node_count = node_count;
  tc.average_degree = average_degree;
  tc.seed = trace_seed;
  return tc;
}

namespace {

[[nodiscard]] std::vector<Scenario> build_matrix() {
  std::vector<Scenario> m;

  auto add = [&m](Scenario s) { m.push_back(std::move(s)); };

  // --- headline environments (figures 5-8) -------------------------------
  {
    Scenario s;
    s.name = "static_small";
    s.description = "200 nodes, static, ContinuStreaming (smoke-scale fig5)";
    s.node_count = 200;
    s.trace_seed = 21;
    add(s);
  }
  {
    Scenario s;
    s.name = "static_1k";
    s.description = "1000 nodes, static, ContinuStreaming (fig5 environment)";
    s.node_count = 1000;
    s.trace_seed = 55;
    add(s);
  }
  {
    Scenario s;
    s.name = "dynamic_1k";
    s.description = "1000 nodes, 5% churn per period (fig6 environment)";
    s.node_count = 1000;
    s.trace_seed = 56;
    s.churn = true;
    add(s);
  }
  {
    Scenario s;
    s.name = "static_4k";
    s.description = "4000 nodes, static (fig7 upper range)";
    s.node_count = 4000;
    s.trace_seed = 4300;
    add(s);
  }
  {
    Scenario s;
    s.name = "dynamic_abrupt";
    s.description = "500 nodes, 5% churn, all departures abrupt (worst case)";
    s.node_count = 500;
    s.trace_seed = 700;
    s.churn = true;
    s.graceful_fraction = 0.0;
    add(s);
  }

  {
    Scenario s;
    s.name = "static_8k";
    s.description = "8000 nodes, static (engine-scaling workload, fig7 extension)";
    s.node_count = 8000;
    s.trace_seed = 8700;
    add(s);
  }
  {
    Scenario s;
    s.name = "static_100k";
    s.description =
        "100000 nodes, static (production-scale milestone; memory-budget "
        "workload — expect minutes of wall clock per run)";
    s.node_count = 100000;
    s.trace_seed = 100700;
    add(s);
  }

  // --- baselines on the same substrate ------------------------------------
  {
    Scenario s;
    s.name = "cool_static_1k";
    s.description = "1000 nodes, static, CoolStreaming baseline";
    s.node_count = 1000;
    s.trace_seed = 55;
    s.scheduler = core::SchedulerKind::kCoolStreaming;
    add(s);
  }
  {
    Scenario s;
    s.name = "cool_dynamic_1k";
    s.description = "1000 nodes, 5% churn, CoolStreaming baseline";
    s.node_count = 1000;
    s.trace_seed = 56;
    s.churn = true;
    s.scheduler = core::SchedulerKind::kCoolStreaming;
    add(s);
  }
  {
    Scenario s;
    s.name = "gridmedia_static_1k";
    s.description = "1000 nodes, static, GridMedia push-pull baseline";
    s.node_count = 1000;
    s.trace_seed = 55;
    s.scheduler = core::SchedulerKind::kGridMediaPushPull;
    add(s);
  }

  // --- DHT / pre-fetch ablation points ("alpha settings") ------------------
  {
    Scenario s;
    s.name = "no_prefetch";
    s.description = "500 nodes, static, prefetch disabled (l = 0): gossip-only";
    s.node_count = 500;
    s.trace_seed = 700;
    s.prefetch_limit = 0;
    add(s);
  }
  {
    Scenario s;
    s.name = "heavy_prefetch";
    s.description = "500 nodes, static, aggressive prefetch (l = 10, k = 6)";
    s.node_count = 500;
    s.trace_seed = 700;
    s.prefetch_limit = 10;
    s.backup_replicas = 6;
    add(s);
  }
  {
    Scenario s;
    s.name = "thin_replicas";
    s.description = "500 nodes, 5% churn, single backup replica (k = 1)";
    s.node_count = 500;
    s.trace_seed = 700;
    s.churn = true;
    s.backup_replicas = 1;
    add(s);
  }

  return m;
}

/// The fig7/8/9/11 sweep grids as named family members, derived from a
/// neutral base via ScenarioOverrides. Trace seeds reproduce the grids
/// the benches used to build inline (300/400/500/600 + n [+ m]), so
/// folding the benches onto the families changed no workload.
[[nodiscard]] std::vector<Scenario> build_families() {
  std::vector<Scenario> families;
  Scenario base;  // paper-standard defaults

  const std::vector<std::size_t> sizes = {100, 500, 1000, 2000, 4000, 8000};

  base.description = "fig7 family: static continuity vs overlay size";
  for (const std::size_t n : sizes) {
    ScenarioOverrides o;
    o.node_count = n;
    o.trace_seed = 300 + n;
    families.push_back(base.with(o, "fig7_static_" + std::to_string(n)));
  }

  base.description = "fig8 family: dynamic continuity vs overlay size (5% churn)";
  for (const std::size_t n : sizes) {
    ScenarioOverrides o;
    o.node_count = n;
    o.churn = true;
    o.trace_seed = 400 + n;
    families.push_back(base.with(o, "fig8_dynamic_" + std::to_string(n)));
  }

  base.description = "fig9 family: control overhead vs overlay size, M in {4,5,6}";
  for (const std::size_t n : {std::size_t{100}, std::size_t{500}, std::size_t{1000},
                              std::size_t{2000}, std::size_t{4000}}) {
    for (const std::size_t m : {std::size_t{4}, std::size_t{5}, std::size_t{6}}) {
      ScenarioOverrides o;
      o.node_count = n;
      o.connected_neighbors = m;
      o.trace_seed = 500 + n + m;
      families.push_back(base.with(
          o, "fig9_m" + std::to_string(m) + "_" + std::to_string(n)));
    }
  }

  base.description = "fig11 family: pre-fetch overhead vs overlay size";
  for (const std::size_t n : sizes) {
    ScenarioOverrides o;
    o.node_count = n;
    o.trace_seed = 600 + n;
    families.push_back(base.with(o, "fig11_static_" + std::to_string(n)));
    o.churn = true;
    families.push_back(base.with(o, "fig11_dynamic_" + std::to_string(n)));
  }

  // --- quantized-network family -------------------------------------------
  // Matrix bases re-run under the quantized latency mode at 1/2/5 ms
  // grids: "q1_static_1k" is static_1k — same trace, same seeds — with
  // deliveries snapped to a 1 ms grid and dispatched as receiver-sharded
  // batches. The continuous/quantized pairs are what the committed
  // divergence study (bench_divergence --grids) sweeps.
  {
    const std::vector<Scenario> matrix = build_matrix();
    const auto matrix_base = [&matrix](const std::string& name) {
      return *std::find_if(matrix.begin(), matrix.end(),
                           [&name](const Scenario& s) { return s.name == name; });
    };
    for (const double grid : {1.0, 2.0, 5.0}) {
      const std::string prefix = "q" + std::to_string(static_cast<int>(grid)) + "_";
      for (const char* name :
           {"static_small", "static_1k", "dynamic_1k", "static_8k", "thin_replicas"}) {
        Scenario b = matrix_base(name);
        ScenarioOverrides o;
        o.latency_grid_ms = grid;
        Scenario s = b.with(o, prefix + b.name);
        s.description = b.description + " [quantized " +
                        std::to_string(static_cast<int>(grid)) + " ms latency grid]";
        families.push_back(std::move(s));
      }
    }

    // --- fault families -----------------------------------------------------
    // Matrix bases re-run under deterministic fault plans with the
    // retry/backoff + blacklist hardening switched on. Same trace, same
    // seeds as the base; the only delta is the injected fault schedule.
    // f1_: light iid link loss. f5_: a hostile mix — heavy loss with
    // burst episodes, a 10% crash-stop event and a latency spike. fp_: a
    // two-region partition that heals. f5_q1_*: the f5_ plan over the
    // quantized network mode, proving injection covers both modes.
    const auto faulted = [&families, &matrix_base](
                             const char* base_name, const std::string& prefix,
                             const fault::FaultPlan& plan, const char* what,
                             double grid_ms = 0.0) {
      Scenario b = matrix_base(base_name);
      ScenarioOverrides o;
      o.fault = plan;
      o.harden = true;
      if (grid_ms > 0.0) o.latency_grid_ms = grid_ms;
      Scenario s = b.with(o, prefix + b.name);
      s.description = b.description + " [" + what + "]";
      families.push_back(std::move(s));
    };

    fault::FaultPlan light;
    light.loss_rate = 0.01;
    for (const char* name : {"static_small", "static_1k", "dynamic_1k"}) {
      faulted(name, "f1_", light, "1% iid link loss, hardened");
    }

    fault::FaultPlan hostile;
    hostile.loss_rate = 0.05;
    hostile.burst_rate = 0.25;
    hostile.burst_period = 10.0;
    hostile.burst_duration = 2.0;
    hostile.crashes.push_back({/*time=*/25.0, /*fraction=*/0.10});
    hostile.spikes.push_back({/*start=*/15.0, /*duration=*/5.0, /*extra_ms=*/100.0});
    for (const char* name : {"static_small", "static_1k", "dynamic_1k"}) {
      faulted(name, "f5_",  hostile,
              "5% loss + bursts + 10% crash @25s + 100ms spike, hardened");
    }
    faulted("static_small", "f5_q1_", hostile,
            "f5 fault mix over the 1 ms quantized grid, hardened",
            /*grid_ms=*/1.0);
    faulted("static_1k", "f5_q1_", hostile,
            "f5 fault mix over the 1 ms quantized grid, hardened",
            /*grid_ms=*/1.0);

    fault::FaultPlan split;
    split.partitions.push_back({/*start=*/20.0, /*heal=*/30.0, /*regions=*/2});
    for (const char* name : {"static_small", "static_1k"}) {
      faulted(name, "fp_", split, "2-region partition [20s,30s), hardened");
    }
  }

  return families;
}

/// One-line description per family prefix for --list-scenarios.
[[nodiscard]] std::string family_description(const std::string& prefix) {
  if (prefix == "fig7") return "static continuity vs overlay size";
  if (prefix == "fig8") return "dynamic continuity vs overlay size (5% churn)";
  if (prefix == "fig9") return "control overhead vs overlay size, M in {4,5,6}";
  if (prefix == "fig11") return "pre-fetch overhead vs overlay size";
  if (prefix == "q1" || prefix == "q2" || prefix == "q5") {
    return "matrix bases under the quantized latency grid (" +
           prefix.substr(1) + " ms)";
  }
  if (prefix == "f1") return "fault family: 1% iid link loss, hardening on";
  if (prefix == "f5") {
    return "fault family: 5% loss + burst episodes + crash + latency "
           "spike, hardening on (f5_q1_* = same plan, quantized grid)";
  }
  if (prefix == "fp") {
    return "fault family: 2-region partition with scheduled heal, "
           "hardening on";
  }
  return "parameterized scenario family";
}

[[nodiscard]] std::vector<ScenarioFamilyGroup> build_family_groups() {
  std::vector<ScenarioFamilyGroup> groups;
  for (const Scenario& s : scenario_families()) {
    const std::string prefix = s.name.substr(0, s.name.find('_'));
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&prefix](const ScenarioFamilyGroup& g) {
                             return g.prefix == prefix;
                           });
    if (it == groups.end()) {
      groups.push_back({prefix, family_description(prefix), {}});
      it = groups.end() - 1;
    }
    it->members.push_back(s.name);
  }
  return groups;
}

}  // namespace

const std::vector<Scenario>& scenario_matrix() {
  static const std::vector<Scenario> matrix = build_matrix();
  return matrix;
}

const std::vector<Scenario>& scenario_families() {
  static const std::vector<Scenario> families = build_families();
  return families;
}

std::optional<Scenario> find_scenario(const std::string& name) {
  const auto by_name = [&name](const Scenario& s) { return s.name == name; };
  const auto& m = scenario_matrix();
  const auto it = std::find_if(m.begin(), m.end(), by_name);
  if (it != m.end()) return *it;
  const auto& f = scenario_families();
  const auto fit = std::find_if(f.begin(), f.end(), by_name);
  if (fit != f.end()) return *fit;
  return std::nullopt;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(scenario_matrix().size());
  for (const auto& s : scenario_matrix()) names.push_back(s.name);
  return names;
}

std::vector<std::string> all_scenario_names() {
  std::vector<std::string> names = scenario_names();
  names.reserve(names.size() + scenario_families().size());
  for (const auto& s : scenario_families()) names.push_back(s.name);
  return names;
}

const std::vector<ScenarioFamilyGroup>& scenario_family_groups() {
  static const std::vector<ScenarioFamilyGroup> groups = build_family_groups();
  return groups;
}

std::vector<Scenario> expand_scenario_selector(const std::string& selector) {
  std::vector<Scenario> expanded;
  if (selector.empty()) return expanded;
  // Exact names win outright — a scenario literally named like a
  // prefix can always be addressed unambiguously.
  if (auto exact = find_scenario(selector)) {
    expanded.push_back(std::move(*exact));
    return expanded;
  }
  const auto is_prefix_of = [&selector](const std::string& name) {
    return name.size() > selector.size() &&
           name.compare(0, selector.size(), selector) == 0;
  };
  for (const auto& s : scenario_matrix()) {
    if (is_prefix_of(s.name)) expanded.push_back(s);
  }
  for (const auto& s : scenario_families()) {
    if (is_prefix_of(s.name)) expanded.push_back(s);
  }
  return expanded;
}

}  // namespace continu::runner
