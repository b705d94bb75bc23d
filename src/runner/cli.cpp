#include "runner/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "runner/scenario.hpp"

namespace continu::runner::cli {

std::optional<std::uint64_t> parse_uint(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  // strtoull accepts leading whitespace, signs and trailing garbage;
  // a flag value must be digits only.
  for (const char* p = text; *p != '\0'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::optional<std::uint64_t> parse_positive(const char* text) {
  const auto value = parse_uint(text);
  if (!value.has_value() || *value == 0) return std::nullopt;
  return value;
}

std::optional<unsigned> parse_positive_u32(const char* text) {
  const auto value = parse_positive(text);
  if (!value.has_value() || *value > std::numeric_limits<unsigned>::max()) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

std::string unknown_scenario_message(const std::string& name) {
  std::string message = "unknown scenario '" + name + "'; valid names:";
  for (const auto& valid : all_scenario_names()) {
    message += "\n  " + valid;
  }
  return message;
}

std::optional<std::string> select_engine(core::SystemConfig& config,
                                         unsigned queue_skew) {
  if (queue_skew > 0 && config.latency_grid_ms <= 0.0) {
    return std::string("--queue-skew ") + std::to_string(queue_skew) +
           " needs a quantized scenario (q*_, f5_q1_*, ...): the windowed "
           "engine's skew unit is a latency-grid bucket";
  }
  config.sharded_queue = queue_skew > 0;
  config.queue_skew_buckets = queue_skew;
  return std::nullopt;
}

}  // namespace continu::runner::cli
