// CampaignTelemetry: the concrete MetricsSink a campaign plugs into
// SessionConfig::metrics. Bundles the three observability outputs behind
// the one interface the instrumented layers see:
//
//   * MetricsRegistry  — every timed phase feeds a latency histogram named
//                        after the phase; named counters/gauges pass
//                        through (registered lazily, cached by name).
//   * TraceWriter      — when tracing is enabled, every timed phase also
//                        becomes a Chrome-trace event on its thread's track.
//   * ProgressReporter — per-test progress updates drive the periodic
//                        status line.
//
// One CampaignTelemetry serves the whole campaign: the session, its node
// workers, every per-node backend, and the journal all share it (the
// registry shards writes per thread).
#ifndef AFEX_OBS_TELEMETRY_H_
#define AFEX_OBS_TELEMETRY_H_

#include <array>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace afex {
namespace obs {

struct TelemetryConfig {
  // Record Chrome-trace events for every timed phase (--trace-file).
  bool trace = false;
  size_t trace_capacity_per_track = TraceWriter::kDefaultCapacityPerTrack;
  ProgressConfig progress;
};

class CampaignTelemetry : public MetricsSink {
 public:
  explicit CampaignTelemetry(TelemetryConfig config = {});

  void RecordPhase(Phase phase, uint64_t start_ns, uint64_t duration_ns) override;
  void AddCounter(std::string_view name, uint64_t delta) override;
  void SetGauge(std::string_view name, double value) override;
  void OnTestExecuted(const ProgressUpdate& update) override;

  MetricsRegistry& registry() { return registry_; }
  const TraceWriter& trace() const { return trace_; }
  ProgressReporter& progress() { return progress_; }

  // Registry state plus the coverage-growth curve accumulated from
  // progress updates (one point per covered-blocks increase, decimated to
  // a bounded count).
  MetricsSnapshot Snapshot() const;

  // Writers for --metrics-file / --trace-file; false on I/O failure.
  bool WriteMetricsFile(const std::string& path) const;
  bool WriteTraceFile(const std::string& path) const;

  // One-line phase-share summary for the report synopsis: where the
  // per-test pipeline's time went (top-level phases only, so the shares
  // sum to ~100%), plus the dominant phase's p50/p99.
  std::string SynopsisLine() const;

 private:
  TelemetryConfig config_;
  MetricsRegistry registry_;
  TraceWriter trace_;
  ProgressReporter progress_;
  std::array<uint32_t, kPhaseCount> phase_histograms_{};

  std::mutex names_mutex_;
  std::unordered_map<std::string, uint32_t> counter_ids_;
  std::unordered_map<std::string, uint32_t> gauge_ids_;

  mutable std::mutex coverage_mutex_;
  std::vector<CoveragePoint> coverage_curve_;
};

}  // namespace obs
}  // namespace afex

#endif  // AFEX_OBS_TELEMETRY_H_
