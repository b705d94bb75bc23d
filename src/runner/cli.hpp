#pragma once
// Shared command-line validation for the tools (continu_sim,
// scenario_fingerprint, benches): strict numeric parsing and scenario
// name diagnostics, factored out so unit tests can cover the exact
// rejection rules the binaries apply.

#include <cstdint>
#include <optional>
#include <string>

#include "core/config.hpp"

namespace continu::runner::cli {

/// Parses a STRICTLY POSITIVE integer. Returns std::nullopt for
/// anything else: empty input, trailing garbage ("4x"), signs ("-1",
/// "+2"), zero, or values beyond 64 bits. The tools use this for
/// --jobs / --threads / --replications, which must be >= 1.
[[nodiscard]] std::optional<std::uint64_t> parse_positive(const char* text);

/// Like parse_positive but also capped (flag values that feed unsigned
/// knobs). Returns std::nullopt when out of (0, max].
[[nodiscard]] std::optional<unsigned> parse_positive_u32(const char* text);

/// Strict NON-NEGATIVE integer (digits only; zero allowed). For flag
/// values where 0 is legitimate, e.g. seeds.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(const char* text);

/// Diagnostic for an unknown --scenario value: names the offender and
/// lists every valid scenario (matrix and families), so the fix is in
/// the error message.
[[nodiscard]] std::string unknown_scenario_message(const std::string& name);

/// Applies `--queue-skew K` to a session config: K >= 1 selects the
/// windowed engine at that skew, 0 keeps the exact engine. Returns a
/// diagnosis when K >= 1 meets a config without a latency grid (the
/// skew unit is a grid bucket, so the flag would silently do nothing);
/// std::nullopt on success.
[[nodiscard]] std::optional<std::string> select_engine(core::SystemConfig& config,
                                                       unsigned queue_skew);

}  // namespace continu::runner::cli
