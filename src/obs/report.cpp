#include "obs/report.hpp"

#include <algorithm>
#include <cinttypes>

namespace continu::obs {
namespace {

/// Minimal JSON string escaping: quotes, backslashes and control bytes.
/// Names here are ASCII identifiers, so this is exhaustive in practice.
std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

struct FileCloser {
  std::FILE* file;
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);
  }
};

}  // namespace

void print_profile(const ObsReport& report, std::FILE* out) {
  if (!report.profile) return;
  const ProfileReport& prof = report.prof;
  std::fprintf(out, "phase profile (threads=%u)\n", prof.threads);
  std::fprintf(out,
               "  %-16s %10s %10s %12s %12s %8s %10s\n",
               "phase", "forks", "serial_ms", "fork_wall_ms", "work_ms",
               "shards", "imbalance");
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseTotals& totals = prof.phases[p];
    if (totals.forks == 0 && totals.serial_spans == 0) continue;
    std::fprintf(out,
                 "  %-16s %10" PRIu64 " %10.3f %12.3f %12.3f %8" PRIu64 " %10.3f\n",
                 phase_name(static_cast<Phase>(p)), totals.forks,
                 ms(totals.serial_ns), ms(totals.fork_wall_ns),
                 ms(totals.forked_work_ns), totals.shards_run,
                 totals.imbalance());
  }
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto& hist = prof.batch_hist[p];
    std::size_t top = 0;
    for (std::size_t b = 0; b < PhaseProfiler::kHistBuckets; ++b) {
      if (hist[b] > 0) top = b + 1;
    }
    if (top == 0) continue;
    std::fprintf(out, "  batch sizes %-14s:", phase_name(static_cast<Phase>(p)));
    // Bin b counts forks of [2^b, 2^(b+1)) items; bin 0 also takes 0,
    // and the last bin everything above.
    for (std::size_t b = 0; b < top; ++b) {
      const std::size_t low = b == 0 ? 0 : std::size_t{1} << b;
      if (b + 1 == PhaseProfiler::kHistBuckets) {
        std::fprintf(out, " [>=%zu]=%" PRIu64, low, hist[b]);
      } else {
        std::fprintf(out, " [%zu-%zu]=%" PRIu64, low, (std::size_t{2} << b) - 1, hist[b]);
      }
    }
    std::fprintf(out, "\n");
  }
  const AmdahlEstimate& amdahl = prof.amdahl;
  std::fprintf(out,
               "  run wall %.3f ms = serial %.3f ms + fork wall %.3f ms "
               "(forked work %.3f ms)\n",
               ms(amdahl.run_wall_ns), ms(amdahl.serial_ns),
               ms(amdahl.fork_wall_ns), ms(amdahl.forked_work_ns));
  std::fprintf(out,
               "  Amdahl serial fraction %.4f -> perfect-scaling speedup cap "
               "%.2fx\n",
               amdahl.serial_fraction,
               amdahl.serial_fraction > 0.0 ? 1.0 / amdahl.serial_fraction : 0.0);
}

bool write_chrome_trace(const ObsReport& report, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  FileCloser closer{file};

  std::fputs("{\"traceEvents\":[\n", file);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", file);
    first = false;
  };

  sep();
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"wall-clock phases (tid = shard)\"}}",
      file);
  sep();
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"sim-time protocol events (tid = node)\"}}",
      file);

  // Wall-clock spans, rebased so the first span starts at ts 0.
  std::uint64_t base = 0;
  bool base_set = false;
  for (const PhaseSpan& span : report.spans) {
    if (!base_set || span.t0_ns < base) {
      base = span.t0_ns;
      base_set = true;
    }
  }
  for (const PhaseSpan& span : report.spans) {
    sep();
    const double ts = static_cast<double>(span.t0_ns - base) / 1e3;
    const double dur = static_cast<double>(span.t1_ns - span.t0_ns) / 1e3;
    const std::uint32_t tid = span.shard == kSerialSpanShard ? 0 : span.shard + 1;
    std::fprintf(file,
                 "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":0,"
                 "\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f}",
                 phase_name(span.phase), tid, ts, dur);
  }

  // Sim-time events: 1 sim second = 1 trace second (ts is in us).
  for (const TraceEvent& event : report.events) {
    sep();
    const std::uint32_t tid = event.node == kNoTraceNode ? 0 : event.node;
    std::fprintf(file,
                 "{\"name\":\"%s\",\"cat\":\"protocol\",\"ph\":\"i\",\"s\":\"t\","
                 "\"pid\":1,\"tid\":%" PRIu32 ",\"ts\":%.3f,\"args\":{",
                 trace_event_name(event.kind), tid, event.time * 1e6);
    std::fprintf(file, "\"a\":%" PRIu64 ",\"b\":%" PRIu64, event.a, event.b);
    if (event.peer != kNoTraceNode) {
      std::fprintf(file, ",\"peer\":%" PRIu32, event.peer);
    }
    std::fputs("}}", file);
  }

  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", file);
  return std::ferror(file) == 0;
}

bool write_stats_json(const ObsReport& report, const std::string& path,
                      const std::string& label, std::uint64_t seed,
                      const std::vector<std::pair<std::string, double>>& headline) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  FileCloser closer{file};

  std::fprintf(file, "{\n  \"label\": \"%s\",\n  \"seed\": %" PRIu64 ",\n",
               json_escape(label).c_str(), seed);
  std::fprintf(file, "  \"threads\": %u,\n", report.prof.threads);

  std::fputs("  \"headline\": {", file);
  for (std::size_t i = 0; i < headline.size(); ++i) {
    std::fprintf(file, "%s\n    \"%s\": %.10g", i == 0 ? "" : ",",
                 json_escape(headline[i].first).c_str(), headline[i].second);
  }
  std::fputs("\n  },\n", file);

  std::fputs("  \"counters\": {", file);
  for (std::size_t i = 0; i < report.counter_values.size(); ++i) {
    std::fprintf(file, "%s\n    \"%s\": %" PRIu64, i == 0 ? "" : ",",
                 json_escape(report.counter_values[i].first).c_str(),
                 report.counter_values[i].second);
  }
  std::fputs("\n  },\n", file);

  if (report.profile) {
    const AmdahlEstimate& amdahl = report.prof.amdahl;
    std::fputs("  \"profile\": {\n", file);
    std::fprintf(file, "    \"run_wall_ns\": %" PRIu64 ",\n", amdahl.run_wall_ns);
    std::fprintf(file, "    \"serial_ns\": %" PRIu64 ",\n", amdahl.serial_ns);
    std::fprintf(file, "    \"fork_wall_ns\": %" PRIu64 ",\n", amdahl.fork_wall_ns);
    std::fprintf(file, "    \"forked_work_ns\": %" PRIu64 ",\n",
                 amdahl.forked_work_ns);
    std::fprintf(file, "    \"serial_fraction\": %.6f,\n", amdahl.serial_fraction);
    std::fputs("    \"phases\": [", file);
    bool first_phase = true;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const PhaseTotals& totals = report.prof.phases[p];
      if (totals.forks == 0 && totals.serial_spans == 0) continue;
      std::fprintf(file, "%s\n      {\"phase\": \"%s\"", first_phase ? "" : ",",
                   phase_name(static_cast<Phase>(p)));
      first_phase = false;
      std::fprintf(file, ", \"forks\": %" PRIu64, totals.forks);
      std::fprintf(file, ", \"serial_ns\": %" PRIu64, totals.serial_ns);
      std::fprintf(file, ", \"fork_wall_ns\": %" PRIu64, totals.fork_wall_ns);
      std::fprintf(file, ", \"forked_work_ns\": %" PRIu64, totals.forked_work_ns);
      std::fprintf(file, ", \"shards_run\": %" PRIu64, totals.shards_run);
      std::fprintf(file, ", \"imbalance\": %.6f", totals.imbalance());
      std::fputs(", \"batch_hist\": [", file);
      std::size_t top = 0;
      for (std::size_t b = 0; b < PhaseProfiler::kHistBuckets; ++b) {
        if (report.prof.batch_hist[p][b] > 0) top = b + 1;
      }
      for (std::size_t b = 0; b < top; ++b) {
        std::fprintf(file, "%s%" PRIu64, b == 0 ? "" : ", ",
                     report.prof.batch_hist[p][b]);
      }
      std::fputs("]}", file);
    }
    std::fputs("\n    ]\n  },\n", file);
  }

  std::fprintf(file,
               "  \"trace\": {\"enabled\": %s, \"events_recorded\": %" PRIu64
               ", \"events_overwritten\": %" PRIu64
               ", \"events_drained\": %zu, \"spans_drained\": %zu}\n}\n",
               report.trace ? "true" : "false", report.trace_recorded,
               report.trace_overwritten, report.events.size(),
               report.spans.size());
  return std::ferror(file) == 0;
}

}  // namespace continu::obs
