// Tests for the observability layer (src/obs): histogram bucket math and
// quantiles against exact oracles, sharded-counter sums under concurrent
// writers, trace-event serialization, progress-line rate/ETA math, the RAII
// phase timer, and the CampaignTelemetry sink end to end (including the
// journal's flush instrumentation and the no-telemetry determinism guard).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/journal.h"
#include "core/random_explorer.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "util/stats.h"

namespace afex {
namespace obs {
namespace {

namespace fs = std::filesystem;

// ---- histogram bucket math --------------------------------------------------

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(HistogramBucketIndex(v), v);
    EXPECT_EQ(HistogramBucketLowerBound(v), v);
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAndBoundsBracketValues) {
  size_t prev = 0;
  for (uint64_t v : {0ULL, 1ULL, 7ULL, 8ULL, 9ULL, 15ULL, 16ULL, 100ULL, 1000ULL,
                     123456ULL, 1ULL << 20, (1ULL << 20) + 1, 987654321ULL,
                     1ULL << 41}) {
    size_t index = HistogramBucketIndex(v);
    EXPECT_GE(index, prev) << "index not monotone at " << v;
    prev = index;
    EXPECT_LT(index, kHistogramBuckets);
    EXPECT_LE(HistogramBucketLowerBound(index), v);
    if (index + 1 < kHistogramBuckets) {
      EXPECT_GT(HistogramBucketLowerBound(index + 1), v);
    }
  }
}

TEST(HistogramBuckets, RelativeBucketWidthIsBounded) {
  // 8 sub-buckets per octave: width / lower_bound <= 1/8 for values >= 8.
  for (size_t index = 8; index + 1 < kHistogramBuckets; ++index) {
    uint64_t lo = HistogramBucketLowerBound(index);
    uint64_t hi = HistogramBucketLowerBound(index + 1);
    EXPECT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo), 0.125 + 1e-12)
        << "bucket " << index;
  }
}

TEST(HistogramBuckets, ValuesAboveCapSaturate) {
  size_t top = HistogramBucketIndex(UINT64_MAX);
  EXPECT_EQ(top, kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketIndex(1ULL << 60), top);
}

// ---- registry ---------------------------------------------------------------

TEST(MetricsRegistry, CountersSumAcrossThreads) {
  MetricsRegistry registry;
  uint32_t id = registry.RegisterCounter("test.counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        registry.AddCounter(id);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "test.counter");
  EXPECT_EQ(snapshot.counters[0].second, kThreads * kPerThread);
}

TEST(MetricsRegistry, HistogramCountAndSumAcrossThreads) {
  MetricsRegistry registry;
  uint32_t id = registry.RegisterHistogram("test.latency");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        registry.RecordLatencyNs(id, 100 + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSummary& h = snapshot.histograms[0];
  EXPECT_EQ(h.count, kThreads * kPerThread);
  EXPECT_EQ(h.sum_ns, kPerThread * (100 + 101 + 102 + 103));
  EXPECT_EQ(h.min_ns, 100u);
  EXPECT_EQ(h.max_ns, 103u);
}

TEST(MetricsRegistry, HistogramMatchesRunningStatsOracle) {
  MetricsRegistry registry;
  uint32_t id = registry.RegisterHistogram("oracle");
  RunningStats oracle;
  std::vector<double> values;
  // Deterministic LCG spanning several octaves (no Date/random in tests
  // either — determinism keeps failures reproducible).
  uint64_t state = 12345;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t v = (state >> 33) % 1000000;
    registry.RecordLatencyNs(id, v);
    oracle.Add(static_cast<double>(v));
    values.push_back(static_cast<double>(v));
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSummary& h = snapshot.histograms[0];
  EXPECT_EQ(h.count, oracle.count());
  EXPECT_EQ(h.min_ns, static_cast<uint64_t>(oracle.min()));
  EXPECT_EQ(h.max_ns, static_cast<uint64_t>(oracle.max()));
  // Sum is exact, so the mean matches the oracle to rounding.
  EXPECT_NEAR(h.mean_ns, oracle.mean(), 1e-6 * oracle.mean());
  // Quantiles come from log buckets: within the 12.5% bucket width of the
  // exact order statistic.
  std::sort(values.begin(), values.end());
  for (auto [q, got] : {std::pair<double, double>{0.50, h.p50_ns},
                        {0.90, h.p90_ns},
                        {0.99, h.p99_ns}}) {
    double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(got, exact, 0.13 * exact) << "q=" << q;
    EXPECT_GE(got, static_cast<double>(h.min_ns));
    EXPECT_LE(got, static_cast<double>(h.max_ns));
  }
  EXPECT_LE(h.p50_ns, h.p90_ns);
  EXPECT_LE(h.p90_ns, h.p99_ns);
}

TEST(MetricsRegistry, GaugesAreLastWriterWinsAndUnsetOnesHidden) {
  MetricsRegistry registry;
  uint32_t set_id = registry.RegisterGauge("gauge.set");
  registry.RegisterGauge("gauge.never_set");
  registry.SetGauge(set_id, 1.0);
  registry.SetGauge(set_id, 42.5);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].first, "gauge.set");
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 42.5);
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndCapacityBounded) {
  MetricsRegistry registry;
  uint32_t a = registry.RegisterCounter("same");
  uint32_t b = registry.RegisterCounter("same");
  EXPECT_EQ(a, b);
  for (size_t i = 0; i < MetricsRegistry::kMaxCounters + 8; ++i) {
    registry.RegisterCounter("c" + std::to_string(i));
  }
  uint32_t overflow = registry.RegisterCounter("one.too.many");
  EXPECT_EQ(overflow, MetricsRegistry::kInvalidMetric);
  // Updates against the invalid id are dropped, not UB.
  registry.AddCounter(overflow, 7);
  registry.RecordLatencyNs(MetricsRegistry::kInvalidMetric, 7);
  registry.SetGauge(MetricsRegistry::kInvalidMetric, 7.0);
  SUCCEED();
}

TEST(MetricsSnapshot, WriteJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.AddCounter(registry.RegisterCounter("runs \"quoted\""), 3);
  registry.SetGauge(registry.RegisterGauge("g"), 1.5);
  registry.RecordLatencyNs(registry.RegisterHistogram("h"), 1234);
  std::ostringstream out;
  registry.Snapshot().WriteJson(out);
  std::string json = out.str();
  // Structural sanity: balanced braces, escaped quote, all three sections.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("runs \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
}

// ---- phases + timer ---------------------------------------------------------

TEST(Phases, EveryPhaseHasADistinctName) {
  std::vector<std::string> names;
  for (size_t p = 0; p < kPhaseCount; ++p) {
    names.emplace_back(PhaseName(static_cast<Phase>(p)));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(PhaseName(Phase::kRealForkExec), std::string("real.fork_exec"));
  // Appended last, so the earlier ids keep their values.
  EXPECT_EQ(static_cast<size_t>(Phase::kSessionRoundWait), kPhaseCount - 1);
  EXPECT_EQ(PhaseName(Phase::kSessionRoundWait), std::string("session.round_wait"));
}

class RecordingSink : public MetricsSink {
 public:
  void RecordPhase(Phase phase, uint64_t start_ns, uint64_t duration_ns) override {
    phases.emplace_back(phase, duration_ns);
    last_start_ns = start_ns;
  }
  void AddCounter(std::string_view name, uint64_t delta) override {
    counters.emplace_back(std::string(name), delta);
  }
  void SetGauge(std::string_view name, double value) override {
    gauges.emplace_back(std::string(name), value);
  }
  void OnTestExecuted(const ProgressUpdate& update) override { updates.push_back(update); }

  std::vector<std::pair<Phase, uint64_t>> phases;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<ProgressUpdate> updates;
  uint64_t last_start_ns = 0;
};

TEST(PhaseTimer, NullSinkIsANoOp) {
  { PhaseTimer timer(nullptr, Phase::kBackendRun); }
  PhaseTimer timer(nullptr, Phase::kBackendRun);
  timer.Finish();
  timer.Finish();
  SUCCEED();
}

TEST(PhaseTimer, RecordsOncePerScopeAndFinishIsIdempotent) {
  RecordingSink sink;
  {
    PhaseTimer timer(&sink, Phase::kExplorerNext);
  }
  ASSERT_EQ(sink.phases.size(), 1u);
  EXPECT_EQ(sink.phases[0].first, Phase::kExplorerNext);
  PhaseTimer timer(&sink, Phase::kClusterObserve);
  timer.Finish();
  timer.Finish();
  EXPECT_EQ(sink.phases.size(), 2u);
  EXPECT_EQ(sink.phases[1].first, Phase::kClusterObserve);
}

// ---- trace writer -----------------------------------------------------------

TEST(TraceWriter, SerializesCompleteEvents) {
  TraceWriter trace(64);
  trace.Append(Phase::kBackendRun, 1000, 2500);
  trace.Append(Phase::kExplorerNext, 4000, 500);
  std::ostringstream out;
  trace.WriteJson(out);
  std::string json = out.str();
  EXPECT_EQ(trace.total_events(), 2u);
  EXPECT_EQ(trace.dropped_events(), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"backend.run\""), std::string::npos);
  // 1000 ns = 1.000 us; 2500 ns = 2.500 us.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceWriter, RingOverwritesOldestAndCountsDrops) {
  TraceWriter trace(16);  // minimum ring capacity
  for (uint64_t i = 0; i < 40; ++i) {
    trace.Append(Phase::kSimRun, i * 10, 1);
  }
  EXPECT_EQ(trace.total_events(), 40u);
  EXPECT_EQ(trace.dropped_events(), 24u);
  std::ostringstream out;
  trace.WriteJson(out);
  std::string json = out.str();
  // Only the newest 16 events survive: the oldest kept is #24 (ts 240ns =
  // 0.240us), everything before it was overwritten.
  EXPECT_EQ(json.find("\"ts\":0.230"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.240"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.390"), std::string::npos);
}

// ---- progress reporter ------------------------------------------------------

TEST(ProgressReporter, StaticMathHelpers) {
  EXPECT_DOUBLE_EQ(ProgressReporter::UpdateEwma(10.0, 20.0, 0.3), 13.0);
  EXPECT_DOUBLE_EQ(ProgressReporter::EtaSeconds(50, 100, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(ProgressReporter::EtaSeconds(100, 100, 10.0), 0.0);
  EXPECT_LT(ProgressReporter::EtaSeconds(50, 0, 10.0), 0.0);
  EXPECT_LT(ProgressReporter::EtaSeconds(50, 100, 0.0), 0.0);
  EXPECT_EQ(ProgressReporter::FormatEta(-1.0), "?");
  EXPECT_EQ(ProgressReporter::FormatEta(37.0), "37s");
  EXPECT_EQ(ProgressReporter::FormatEta(252.0), "4m12s");
  EXPECT_EQ(ProgressReporter::FormatEta(2.0 * 3600 + 5 * 60), "2h05m");
}

TEST(ProgressReporter, EmitsOnIntervalWithInjectedClock) {
  ProgressConfig config;
  config.interval_seconds = 1.0;
  config.budget = 100;
  ProgressReporter reporter(config);
  ProgressUpdate update;
  update.tests_executed = 1;
  reporter.OnTestExecutedAt(update, 10.0);  // baseline, no line
  EXPECT_EQ(reporter.lines_emitted(), 0u);
  update.tests_executed = 5;
  reporter.OnTestExecutedAt(update, 10.5);  // interval not elapsed
  EXPECT_EQ(reporter.lines_emitted(), 0u);
  update.tests_executed = 20;
  reporter.OnTestExecutedAt(update, 12.0);  // 2s elapsed: emit
  EXPECT_EQ(reporter.lines_emitted(), 1u);
  // First rate: (20 - 0) / 2s = 10 t/s, no prior EWMA.
  EXPECT_DOUBLE_EQ(reporter.ewma_tests_per_sec(), 10.0);
  update.tests_executed = 60;
  reporter.OnTestExecutedAt(update, 14.0);  // 40 tests / 2s = 20 t/s
  EXPECT_EQ(reporter.lines_emitted(), 2u);
  EXPECT_DOUBLE_EQ(reporter.ewma_tests_per_sec(), 0.3 * 20.0 + 0.7 * 10.0);
}

TEST(ProgressReporter, DisabledIntervalNeverEmits) {
  ProgressReporter reporter(ProgressConfig{});
  ProgressUpdate update;
  for (int i = 0; i < 10; ++i) {
    update.tests_executed = static_cast<size_t>(i);
    reporter.OnTestExecutedAt(update, static_cast<double>(i) * 100.0);
  }
  EXPECT_EQ(reporter.lines_emitted(), 0u);
}

TEST(ProgressReporter, ComposeLineCarriesEveryField) {
  ProgressConfig config;
  config.interval_seconds = 1.0;
  config.budget = 200;
  config.coverage_fraction = [] { return 0.5; };
  config.pool_size = [] { return size_t{64}; };
  ProgressReporter reporter(config);
  ProgressUpdate update;
  update.tests_executed = 1;
  reporter.OnTestExecutedAt(update, 0.0);
  update.tests_executed = 100;
  reporter.OnTestExecutedAt(update, 10.0);  // ~10 t/s -> eta 10s
  update.crashes = 3;
  update.failed_tests = 7;
  update.clusters = 4;
  std::string line = reporter.ComposeLine(update);
  EXPECT_NE(line.find("progress: 100/200 tests (50.0%)"), std::string::npos) << line;
  EXPECT_NE(line.find("t/s"), std::string::npos) << line;
  EXPECT_NE(line.find("eta 10s"), std::string::npos) << line;
  EXPECT_NE(line.find("3 crashes"), std::string::npos) << line;
  EXPECT_NE(line.find("7 failed"), std::string::npos) << line;
  EXPECT_NE(line.find("4 clusters"), std::string::npos) << line;
  EXPECT_NE(line.find("coverage 50.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("pool 64"), std::string::npos) << line;
}

TEST(ProgressReporter, ComposeLineDiscoveryFacetsAppearOnlyWhenProduced) {
  ProgressReporter reporter(ProgressConfig{});
  ProgressUpdate update;
  update.tests_executed = 10;
  // Campaigns without recovery/verify phases or coverage keep the short line.
  std::string bare = reporter.ComposeLine(update);
  EXPECT_EQ(bare.find("recfail"), std::string::npos) << bare;
  EXPECT_EQ(bare.find("inv"), std::string::npos) << bare;
  EXPECT_EQ(bare.find("blocks"), std::string::npos) << bare;

  update.recovery_failures = 2;
  update.invariant_violations = 1;
  update.covered_blocks = 57;
  std::string full = reporter.ComposeLine(update);
  EXPECT_NE(full.find("2 recfail"), std::string::npos) << full;
  EXPECT_NE(full.find("1 inv"), std::string::npos) << full;
  EXPECT_NE(full.find("57 blocks"), std::string::npos) << full;

  // Either two-phase facet alone brings the pair (reads as one unit).
  update.recovery_failures = 0;
  update.covered_blocks = 0;
  std::string inv_only = reporter.ComposeLine(update);
  EXPECT_NE(inv_only.find("0 recfail, 1 inv"), std::string::npos) << inv_only;
}

// ---- campaign telemetry sink ------------------------------------------------

TEST(CampaignTelemetry, PhasesFeedHistogramsAndOptionallyTrace) {
  TelemetryConfig config;
  config.trace = true;
  CampaignTelemetry telemetry(config);
  telemetry.RecordPhase(Phase::kBackendRun, 100, 1000);
  telemetry.RecordPhase(Phase::kBackendRun, 2000, 3000);
  telemetry.RecordPhase(Phase::kExplorerNext, 50, 10);
  MetricsSnapshot snapshot = telemetry.Snapshot();
  bool found = false;
  for (const HistogramSummary& h : snapshot.histograms) {
    if (h.name == "backend.run") {
      found = true;
      EXPECT_EQ(h.count, 2u);
      EXPECT_EQ(h.sum_ns, 4000u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(telemetry.trace().total_events(), 3u);

  CampaignTelemetry untraced;
  untraced.RecordPhase(Phase::kBackendRun, 100, 1000);
  EXPECT_EQ(untraced.trace().total_events(), 0u);
}

TEST(CampaignTelemetry, NamedCountersAndGaugesRoundTrip) {
  CampaignTelemetry telemetry;
  telemetry.AddCounter("real.exit_clean", 2);
  telemetry.AddCounter("real.exit_clean", 1);
  telemetry.AddCounter("real.hang", 1);
  telemetry.SetGauge("journal.flush_last_ns", 1234.0);
  MetricsSnapshot snapshot = telemetry.Snapshot();
  uint64_t clean = 0, hang = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "real.exit_clean") clean = value;
    if (name == "real.hang") hang = value;
  }
  EXPECT_EQ(clean, 3u);
  EXPECT_EQ(hang, 1u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 1234.0);
}

TEST(CampaignTelemetry, SynopsisLineReportsPipelineShares) {
  CampaignTelemetry telemetry;
  EXPECT_EQ(telemetry.SynopsisLine(), "telemetry: no timed phases recorded");
  telemetry.RecordPhase(Phase::kExplorerNext, 0, 1000);
  telemetry.RecordPhase(Phase::kBackendRun, 0, 9000);
  std::string line = telemetry.SynopsisLine();
  EXPECT_NE(line.find("explorer.next 10.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("backend.run 90.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("backend.run p50="), std::string::npos) << line;
}

TEST(CampaignTelemetry, CoverageGrowthCurveRecordsOnlyGrowth) {
  CampaignTelemetry telemetry;
  ProgressUpdate update;
  update.tests_executed = 1;
  update.covered_blocks = 10;
  telemetry.OnTestExecuted(update);
  update.tests_executed = 2;  // no growth: no point
  telemetry.OnTestExecuted(update);
  update.tests_executed = 3;
  update.covered_blocks = 25;
  telemetry.OnTestExecuted(update);
  MetricsSnapshot snapshot = telemetry.Snapshot();
  ASSERT_EQ(snapshot.coverage_growth.size(), 2u);
  EXPECT_EQ(snapshot.coverage_growth[0].tests, 1u);
  EXPECT_EQ(snapshot.coverage_growth[0].covered, 10u);
  EXPECT_EQ(snapshot.coverage_growth[1].tests, 3u);
  EXPECT_EQ(snapshot.coverage_growth[1].covered, 25u);

  // The curve lands in the JSON snapshot and the synopsis.
  std::ostringstream out;
  snapshot.WriteJson(out);
  EXPECT_NE(out.str().find("\"coverage_growth\": [[1, 10], [3, 25]]"), std::string::npos)
      << out.str();
  telemetry.RecordPhase(Phase::kBackendRun, 0, 1000);
  std::string line = telemetry.SynopsisLine();
  EXPECT_NE(line.find("coverage 25 blocks by test 3"), std::string::npos) << line;

  // No coverage signal: the key is omitted entirely.
  CampaignTelemetry none;
  std::ostringstream empty_out;
  none.Snapshot().WriteJson(empty_out);
  EXPECT_EQ(empty_out.str().find("coverage_growth"), std::string::npos);
}

TEST(CampaignTelemetry, CoverageGrowthCurveDecimatesButKeepsTheFinalPoint) {
  CampaignTelemetry telemetry;
  ProgressUpdate update;
  for (size_t i = 1; i <= 5000; ++i) {
    update.tests_executed = i;
    update.covered_blocks = i;  // strictly growing: every test adds a point
    telemetry.OnTestExecuted(update);
  }
  MetricsSnapshot snapshot = telemetry.Snapshot();
  ASSERT_FALSE(snapshot.coverage_growth.empty());
  EXPECT_LE(snapshot.coverage_growth.size(), 2048u + 1u);
  EXPECT_EQ(snapshot.coverage_growth.back().tests, 5000u);
  EXPECT_EQ(snapshot.coverage_growth.back().covered, 5000u);
  // Monotone in both axes after decimation.
  for (size_t i = 1; i < snapshot.coverage_growth.size(); ++i) {
    EXPECT_LT(snapshot.coverage_growth[i - 1].tests, snapshot.coverage_growth[i].tests);
    EXPECT_LT(snapshot.coverage_growth[i - 1].covered,
              snapshot.coverage_growth[i].covered);
  }
}

TEST(CampaignTelemetry, WritesMetricsAndTraceFiles) {
  TelemetryConfig config;
  config.trace = true;
  CampaignTelemetry telemetry(config);
  telemetry.RecordPhase(Phase::kSimRun, 10, 20);
  fs::path dir = fs::temp_directory_path() / "afex_obs_test";
  fs::create_directories(dir);
  std::string metrics_path = (dir / "metrics.json").string();
  std::string trace_path = (dir / "trace.json").string();
  EXPECT_TRUE(telemetry.WriteMetricsFile(metrics_path));
  EXPECT_TRUE(telemetry.WriteTraceFile(trace_path));
  std::ifstream metrics_in(metrics_path);
  std::stringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  EXPECT_NE(metrics_text.str().find("\"sim.run\""), std::string::npos);
  std::ifstream trace_in(trace_path);
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_FALSE(telemetry.WriteMetricsFile((dir / "no_such_dir" / "x.json").string()));
  fs::remove_all(dir);
}

// ---- integration: instrumented session --------------------------------------

TEST(Integration, SessionPhaseTimersCountEveryTest) {
  TargetHarness harness(minidb::MakeSuite(), /*seed=*/7);
  FaultSpace space = harness.MakeSpace(/*max_call=*/20);
  RandomExplorer explorer(space, /*seed=*/7);
  CampaignTelemetry telemetry;
  SessionConfig config;
  config.metrics = &telemetry;
  harness.set_metrics_sink(&telemetry);
  ExplorationSession session(explorer, harness, space, config);
  constexpr size_t kBudget = 40;
  session.Run(SearchTarget{.max_tests = kBudget});

  MetricsSnapshot snapshot = telemetry.Snapshot();
  auto count_of = [&snapshot](const std::string& name) -> uint64_t {
    for (const HistogramSummary& h : snapshot.histograms) {
      if (h.name == name) {
        return h.count;
      }
    }
    return 0;
  };
  EXPECT_EQ(count_of("explorer.next"), kBudget);
  EXPECT_EQ(count_of("backend.run"), kBudget);
  EXPECT_EQ(count_of("cluster.observe"), kBudget);
  EXPECT_EQ(count_of("sim.decode"), kBudget);
  EXPECT_EQ(count_of("sim.run"), kBudget);
  EXPECT_EQ(count_of("sim.feedback_merge"), kBudget);
}

TEST(Integration, TelemetryDoesNotPerturbResults) {
  // The determinism guard behind "off means off": the same seeded campaign
  // with and without a sink must produce identical records.
  auto run = [](MetricsSink* sink) {
    TargetHarness harness(minidb::MakeSuite(), /*seed=*/11);
    FaultSpace space = harness.MakeSpace(/*max_call=*/20);
    RandomExplorer explorer(space, /*seed=*/11);
    SessionConfig config;
    config.metrics = sink;
    harness.set_metrics_sink(sink);
    ExplorationSession session(explorer, harness, space, config);
    return session.Run(SearchTarget{.max_tests = 60});
  };
  CampaignTelemetry telemetry;
  SessionResult with_sink = run(&telemetry);
  SessionResult without_sink = run(nullptr);
  ASSERT_EQ(with_sink.records.size(), without_sink.records.size());
  for (size_t i = 0; i < with_sink.records.size(); ++i) {
    const SessionRecord& a = with_sink.records[i];
    const SessionRecord& b = without_sink.records[i];
    EXPECT_TRUE(a.fault == b.fault) << "record " << i;
    EXPECT_EQ(a.fitness, b.fitness) << "record " << i;
    EXPECT_EQ(a.cluster_id, b.cluster_id) << "record " << i;
    EXPECT_EQ(a.outcome.exit_code, b.outcome.exit_code) << "record " << i;
    EXPECT_EQ(a.outcome.detail, b.outcome.detail) << "record " << i;
  }
}

TEST(Integration, JournalAppendRecordsFlushMetrics) {
  CampaignTelemetry telemetry;
  fs::path dir = fs::temp_directory_path() / "afex_obs_journal_test";
  fs::remove_all(dir);  // Journal::Create refuses a leftover file
  fs::create_directories(dir);
  std::string path = (dir / "j.afexj").string();
  {
    Journal journal = Journal::Create(path, "HDR test");
    journal.set_metrics_sink(&telemetry);
    journal.Append("R one");
    journal.Append("R two");
    journal.Append("R three");
  }
  MetricsSnapshot snapshot = telemetry.Snapshot();
  uint64_t records = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "journal.records") {
      records = value;
    }
  }
  EXPECT_EQ(records, 3u);
  bool gauge_found = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "journal.flush_last_ns") {
      gauge_found = true;
      EXPECT_GE(value, 0.0);
    }
  }
  EXPECT_TRUE(gauge_found);
  for (const HistogramSummary& h : snapshot.histograms) {
    if (h.name == "journal.append" || h.name == "journal.flush") {
      EXPECT_EQ(h.count, 3u) << h.name;
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace obs
}  // namespace afex
