// afex_perfbench: runs one campaign of one benchmark workload in a fresh
// process, composed from the same public classes afex_cli composes
// (TargetHarness / RealTargetHarness, FitnessExplorer, ExplorationSession /
// ParallelSession over NodeManagers, CampaignStore as the record observer,
// analysis::AnalyzeTargetBinary for the auto-space). run.py drives it and
// does all the statistics; README.md lists the workloads and metrics.
//
// Usage:
//   afex_perfbench --describe
//       JSON: build provenance plus each workload's run parameters.
//   afex_perfbench --workload=NAME --seed=N --mode=MODE --work-dir=DIR
//                  --out=FILE [--trace]
//       MODE is `campaign` (stop at half budget, reopen the journal, replay
//       it, continue to the full budget) or `uninterrupted` (the same
//       campaign in one go, for the resume equivalence check). Writes a
//       JSON summary to FILE, FILE.lat (per-test latencies, little-endian
//       u64 ns) and, with --trace, FILE.spans (see SpanRecord).
//
// Instrumentation lives only in this file, at calls into public functions:
// an Explorer decorator (issue / report), a runner wrapper (RunFault), a
// record-observer wrapper (CampaignStore::Append) and, with --trace, an
// obs::MetricsSink that keeps the exec phase events the harness already
// emits. Untraced runs time only issue and record, for test latency.
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/target_profile.h"
#include "bench/host_info.h"
#include "campaign/store.h"
#include "cluster/node_manager.h"
#include "cluster/parallel_session.h"
#include "core/fitness_explorer.h"
#include "core/session.h"
#include "core/space_lang.h"
#include "exec/forkserver.h"
#include "exec/real_target_harness.h"
#include "obs/metrics.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"

namespace afex {
namespace perfbench {
namespace {

// ---- workloads -------------------------------------------------------------

enum class Kind { kSim, kWalutil, kTxengine };

// A planted bug that must show up in the records: some record whose test
// label matches (empty = any) and whose detail contains `needle`.
struct Signature {
  std::string test_label;
  std::string needle;
};

struct Workload {
  std::string name;
  Kind kind;
  size_t jobs;
  size_t budget;
  size_t max_call;  // call-axis width of the canonical space (sim, walutil)
  std::vector<Signature> signatures;
  // Set-ups and resumes measured per campaign; run.py pools them over the
  // run. The campaign's own are one of each; a workload with few campaigns
  // per run adds throw-away ones between stretches of the second half, so
  // that its runs sample the host's changing speed across their length
  // rather than at a few moments.
  size_t repeats;
  // Run parameters for run.py: campaign seeds per benchmark run, and the
  // nominal wall time of one campaign process, from which run.py fixes how
  // many campaigns a run of --seconds makes (the same count on any host).
  size_t seeds_per_run;
  double campaign_s;
};

// The txengine storage space: every storage-failure mode against the
// three durability calls, call ordinals 1-40, eight workload test ids.
// retval 20 doubles as the short_write byte count (tears any page write).
constexpr const char* kTxengineSpace =
    "txstorage\n"
    "test : [1,8]\n"
    "function : { write, fsync, rename }\n"
    "call : [1,40]\n"
    "retval : [20,20]\n"
    "mode : { kill_at, short_write, drop_sync, crash_after_rename }\n"
    ";\n";

const std::vector<Workload>& Workloads() {
  // Budgets: at least 1000 tests and under half of each space; sim
  // campaigns are short (~0.15 s a process) so a run can repeat them many
  // times, the txengine one takes ~13 s. Failure counts, and txengine's
  // resume and set-up times, vary between campaign seeds (sim failures:
  // 26-40 over ten seeds), so runs average several.
  static const std::vector<Workload> workloads = {
      {"sim-minidb", Kind::kSim, 1, 5000, 100, {}, 1, 8, 0.16},
      {"sim-minidb-jobs4", Kind::kSim, 4, 5000, 100, {}, 1, 8, 0.16},
      {"real-walutil", Kind::kWalutil, 1, 1600, 40,
       {{"4", "signal Segmentation fault"}, {"3", "signal Aborted"}}, 1, 2, 2.0},
      {"real-txengine-recovery", Kind::kTxengine, 1, 1001, 40,
       {{"", "lost committed txn"}, {"", "torn page"}, {"", "diverges"}}, 9, 3, 14.0},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

// ---- spans -----------------------------------------------------------------

// Span names; the index is what SpanRecord::name stores. run.py carries
// the same table (kept in this order).
enum SpanName : uint32_t {
  kCampaignRun = 0,   // one session Run() call
  kCampaignStep,      // one test: issue .. record appended
  kCoreNext,          // Explorer::NextCandidate
  kCoreReport,        // Explorer::ReportResult
  kTargetsRunFault,   // TargetHarness::RunFault
  kExecRunFault,      // RealTargetHarness::RunFault
  kCampaignAppend,    // CampaignStore::Append via the record observer
  kCampaignOpen,      // CampaignStore::Open
  kCampaignReplay,    // session Replay over the journaled records
  kCampaignCommitResume,
  kAnalysisProfile,   // analysis::AnalyzeTargetBinary
  kExecFsRoundtrip,   // phase events from the harness's MetricsSink
  kExecRecoveryRun,
  kExecVerify,
  kExecScratchCleanup,
  kSpanNameCount,
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "campaign.run",          "campaign.step",      "core.next",
    "core.report",           "targets.run_fault",  "exec.run_fault",
    "campaign.append",       "campaign.open",      "campaign.replay",
    "campaign.commit_resume", "analysis.profile",  "exec.fs_roundtrip",
    "exec.recovery_run",     "exec.verify",        "exec.scratch_cleanup",
};

// On-disk span layout (little-endian, 32 bytes): `id` is the test index
// for per-test spans (-1 otherwise) and `parent` the test index of the
// campaign.step span it belongs to (-1 for roots).
struct SpanRecord {
  uint32_t name;
  uint32_t thread;
  int32_t id;
  int32_t parent;
  uint64_t start_ns;
  uint64_t end_ns;
};
static_assert(sizeof(SpanRecord) == 32);

// Everything the instrumentation observes during one process. Main-thread
// state is plain; the only cross-thread writes are run_fault spans from
// ParallelSession workers, each into its own preallocated slot (the pool's
// Submit/Wait mutex orders them against the main thread's reads).
class Probe {
 public:
  Probe(bool traced, size_t budget) : traced_(traced) {
    if (traced_) {
      run_spans_.resize(budget);
    }
  }

  bool traced() const { return traced_; }
  // Replayed issues/reports advance the test index but record nothing.
  void set_live(bool live) { live_ = live; }

  void OnIssue(uint64_t start, uint64_t end) {
    const int32_t test = static_cast<int32_t>(issued_++);
    if (!live_) {
      return;
    }
    if (first_live_issue_ns_ == 0) {
      first_live_issue_ns_ = start;
    }
    issue_ns_.push_back(start);
    if (after_report_) {
      // First issue after a report opens a round (every issue, serially).
      round_base_.store(test, std::memory_order_relaxed);
      after_report_ = false;
    }
    if (traced_) {
      Add(kCoreNext, test, test, start, end);
    }
  }

  void OnReport(uint64_t start, uint64_t end) {
    const int32_t test = static_cast<int32_t>(reported_++);
    after_report_ = true;
    if (live_ && traced_) {
      Add(kCoreReport, test, test, start, end);
    }
  }

  // Record observer entry: the test's latency ends here.
  void OnRecord(uint64_t now) {
    if (first_record_ns_ == 0) {
      first_record_ns_ = now;
    }
    latencies_ns_.push_back(now - issue_ns_.front());
    step_start_ns_ = issue_ns_.front();
    issue_ns_.pop_front();
  }

  void OnAppended(uint64_t start, uint64_t end) {
    const int32_t test = static_cast<int32_t>(reported_ - 1);
    Add(kCampaignAppend, test, test, start, end);
    Add(kCampaignStep, test, -1, step_start_ns_, end);
  }

  // Test index of the candidate node `node` runs in the current round.
  int32_t TestForNode(size_t node) const {
    return round_base_.load(std::memory_order_relaxed) + static_cast<int32_t>(node);
  }

  void OnRun(SpanName name, int32_t test, uint64_t start, uint64_t end) {
    run_spans_[static_cast<size_t>(test)] =
        SpanRecord{name, obs::ThreadSlot(), test, test, start, end};
  }

  // Exec phase events of the current test (serial sessions only).
  void OnPhase(SpanName name, uint64_t start, uint64_t end) {
    if (live_) {
      const int32_t test = static_cast<int32_t>(issued_) - 1;
      Add(name, test, test, start, end);
    }
  }

  void Add(SpanName name, int32_t id, int32_t parent, uint64_t start, uint64_t end) {
    spans_.push_back(SpanRecord{name, obs::ThreadSlot(), id, parent, start, end});
  }

  // A resumed session re-issues the campaign from test 0.
  void BeginResume() {
    issued_ = 0;
    reported_ = 0;
    after_report_ = true;
    first_live_issue_ns_ = 0;
    first_record_ns_ = 0;
  }
  uint64_t first_live_issue_ns() const { return first_live_issue_ns_; }
  uint64_t first_record_ns() const { return first_record_ns_; }
  const std::vector<uint64_t>& latencies_ns() const { return latencies_ns_; }

  bool WriteSpans(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    auto write = [&out](const std::vector<SpanRecord>& spans) {
      out.write(reinterpret_cast<const char*>(spans.data()),
                static_cast<std::streamsize>(spans.size() * sizeof(SpanRecord)));
    };
    write(spans_);
    std::vector<SpanRecord> ran;
    for (const SpanRecord& s : run_spans_) {
      if (s.end_ns != 0) {
        ran.push_back(s);
      }
    }
    write(ran);
    return static_cast<bool>(out);
  }

 private:
  const bool traced_;
  bool live_ = true;
  bool after_report_ = true;
  size_t issued_ = 0;
  size_t reported_ = 0;
  std::atomic<int32_t> round_base_{0};
  std::deque<uint64_t> issue_ns_;
  std::vector<uint64_t> latencies_ns_;
  uint64_t step_start_ns_ = 0;
  uint64_t first_live_issue_ns_ = 0;
  uint64_t first_record_ns_ = 0;
  std::vector<SpanRecord> spans_;      // main thread
  std::vector<SpanRecord> run_spans_;  // one slot per test index
};

// The "thin Explorer decorator": issue and report timestamps.
class TimedExplorer : public Explorer {
 public:
  TimedExplorer(Explorer& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  const FaultSpace& space() const override { return inner_.space(); }
  size_t issued_count() const override { return inner_.issued_count(); }

  std::optional<Fault> NextCandidate() override {
    const uint64_t start = obs::NowNs();
    std::optional<Fault> candidate = inner_.NextCandidate();
    if (candidate.has_value()) {
      probe_.OnIssue(start, probe_.traced() ? obs::NowNs() : start);
    }
    return candidate;
  }

  void ReportResult(const Fault& fault, double fitness) override {
    const uint64_t start = probe_.traced() ? obs::NowNs() : 0;
    inner_.ReportResult(fault, fitness);
    probe_.OnReport(start, probe_.traced() ? obs::NowNs() : 0);
  }

 private:
  Explorer& inner_;
  Probe& probe_;
};

// Traced serial real-backend runs only: keeps the exec phase events the
// harness already emits that the per-layer metrics read.
class PhaseSink : public obs::MetricsSink {
 public:
  explicit PhaseSink(Probe& probe) : probe_(probe) {}

  void RecordPhase(obs::Phase phase, uint64_t start_ns, uint64_t duration_ns) override {
    SpanName name;
    switch (phase) {
      case obs::Phase::kRealFsRoundtrip: name = kExecFsRoundtrip; break;
      case obs::Phase::kRealRecoveryRun: name = kExecRecoveryRun; break;
      case obs::Phase::kRealVerify: name = kExecVerify; break;
      case obs::Phase::kRealScratchCleanup: name = kExecScratchCleanup; break;
      default: return;
    }
    probe_.OnPhase(name, start_ns, start_ns + duration_ns);
  }
  void AddCounter(std::string_view, uint64_t) override {}
  void SetGauge(std::string_view, double) override {}
  void OnTestExecuted(const obs::ProgressUpdate&) override {}

 private:
  Probe& probe_;
};

// ---- the campaign rig --------------------------------------------------------

// Harness(es), space and identity for one workload and seed; outlives the
// explorers and sessions of both campaign halves.
struct Rig {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  std::optional<analysis::TargetProfile> profile;
  std::vector<std::unique_ptr<TargetBackend>> backends;  // one per node
  FaultSpace space;
  CampaignMeta meta;
};

[[noreturn]] void Fail(const std::string& why) { throw std::runtime_error(why); }

void BuildRig(Rig& rig, const Workload& w, uint64_t seed, const std::string& work_dir,
              Probe& probe) {
  rig.workload = &w;
  rig.seed = seed;
  rig.meta.strategy = "fitness";
  rig.meta.seed = seed;
  rig.meta.jobs = w.jobs;
  rig.meta.feedback = true;
  if (w.kind == Kind::kSim) {
    for (size_t i = 0; i < w.jobs; ++i) {
      rig.backends.push_back(std::make_unique<TargetHarness>(minidb::MakeSuite(), seed ^ 0x5eed));
    }
    rig.space = static_cast<TargetHarness&>(*rig.backends[0]).MakeSpace(w.max_call);
    rig.meta.target = "minidb";
  } else {
    exec::RealTargetConfig config;
    config.interposer_path = PERFBENCH_INTERPOSER;
    config.work_root = work_dir + "/scratch";
    config.exec_mode = exec::ExecMode::kForkserver;
    std::filesystem::create_directories(config.work_root);
    if (w.kind == Kind::kWalutil) {
      config.target_argv = {PERFBENCH_WALUTIL, "{test}"};
      config.num_tests = 6;
    } else {
      config.target_argv = {PERFBENCH_TXENGINE, "workload", "{test}"};
      config.recovery_argv = {PERFBENCH_TXENGINE, "recover"};
      config.verify_argv = {PERFBENCH_TXENGINE, "verify"};
      config.num_tests = 8;
      config.timeout_ms = 10000;
    }
    // Like afex_cli, every real-backend campaign profiles its target: the
    // fingerprint goes into the journal, and walutil's auto-space is built
    // from the imports.
    std::string error;
    const uint64_t start = obs::NowNs();
    rig.profile = analysis::AnalyzeTargetBinary(config.target_argv[0], error);
    if (probe.traced()) {
      probe.Add(kAnalysisProfile, -1, -1, start, obs::NowNs());
    }
    if (!rig.profile.has_value()) {
      Fail("cannot analyze " + config.target_argv[0] + ": " + error);
    }
    rig.meta.analysis_fingerprint = analysis::TargetProfileFingerprint(*rig.profile);
    if (w.kind == Kind::kWalutil) {
      config.functions = rig.profile->InterposableImports();
    }
    for (size_t i = 0; i < w.jobs; ++i) {
      rig.backends.push_back(std::make_unique<exec::RealTargetHarness>(config));
    }
    if (w.kind == Kind::kWalutil) {
      rig.space = static_cast<exec::RealTargetHarness&>(*rig.backends[0]).MakeSpace(w.max_call);
    } else {
      rig.space = BuildFaultSpace(ParseFaultSpaceDescription(kTxengineSpace).spaces.at(0), "real");
    }
    rig.meta.target = "real:" + config.target_argv[0];
  }
  rig.meta.space_fingerprint = FaultSpaceFingerprint(rig.space);
  if (2 * w.budget >= rig.space.TotalPoints()) {
    Fail(w.name + ": budget " + std::to_string(w.budget) + " is not below half of its " +
        std::to_string(rig.space.TotalPoints()) + "-point space");
  }
}

std::unique_ptr<FitnessExplorer> MakeExplorer(const Rig& rig) {
  FitnessExplorerConfig config;
  config.seed = rig.seed;
  auto explorer = std::make_unique<FitnessExplorer>(rig.space, config);
  if (rig.workload->kind == Kind::kWalutil) {  // auto-space priors
    analysis::SeedExplorerFromProfile(*explorer, rig.space, *rig.profile);
  }
  return explorer;
}

// One session over the rig: ExplorationSession for one node, ParallelSession
// with a NodeManager per backend otherwise. The runner is wrapped to time
// RunFault in traced runs.
class Session {
 public:
  Session(Rig& rig, Explorer& explorer, SessionConfig config, Probe& probe) {
    const SpanName run_name = rig.workload->kind == Kind::kSim ? kTargetsRunFault : kExecRunFault;
    auto runner = [&rig, &probe, run_name](size_t node) {
      TargetBackend* backend = rig.backends[node].get();
      const FaultSpace* space = &rig.space;
      return [backend, space, &probe, run_name, node](const Fault& fault) {
        if (!probe.traced()) {
          return backend->RunFault(*space, fault);
        }
        const int32_t test = probe.TestForNode(node);
        const uint64_t start = obs::NowNs();
        TestOutcome outcome = backend->RunFault(*space, fault);
        probe.OnRun(run_name, test, start, obs::NowNs());
        return outcome;
      };
    };
    if (rig.backends.size() == 1) {
      serial_.emplace(explorer, runner(0), std::move(config));
    } else {
      std::vector<std::unique_ptr<NodeManager>> managers;
      for (size_t i = 0; i < rig.backends.size(); ++i) {
        managers.push_back(std::make_unique<NodeManager>(
            "node" + std::to_string(i), NodeManager::Hooks{.test = runner(i)}));
      }
      parallel_.emplace(explorer, std::move(managers), std::move(config));
    }
  }

  // Number of records consumed, or nullopt on a journal/config mismatch.
  std::optional<size_t> Replay(const std::vector<SessionRecord>& records,
                               const SearchTarget& target) {
    if (parallel_.has_value()) {
      return parallel_->Replay(records, target);
    }
    for (const SessionRecord& record : records) {
      if (!serial_->Replay(record)) {
        return std::nullopt;
      }
    }
    return records.size();
  }

  const SessionResult& Run(const SearchTarget& target) {
    return serial_.has_value() ? serial_->Run(target) : parallel_->Run(target);
  }

 private:
  std::optional<ExplorationSession> serial_;
  std::optional<ParallelSession> parallel_;
};

// ---- results -----------------------------------------------------------------

// FNV-1a over every record's fault indices, fitness bits, cluster id and
// full outcome — the digest bench/perf_real and bench/perf_sim use.
uint64_t DigestRecords(const std::vector<SessionRecord>& records) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((v >> shift) & 0xff)) * 0x100000001b3ULL;
    }
  };
  auto mix_string = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h = (h ^ c) * 0x100000001b3ULL;
    }
    h = (h ^ 0xff) * 0x100000001b3ULL;
  };
  for (const SessionRecord& r : records) {
    for (size_t i = 0; i < r.fault.dimensions(); ++i) {
      mix(r.fault[i]);
    }
    uint64_t fitness_bits;
    static_assert(sizeof(fitness_bits) == sizeof(r.fitness));
    std::memcpy(&fitness_bits, &r.fitness, sizeof(fitness_bits));
    mix(fitness_bits);
    mix(r.cluster_id);
    const TestOutcome& o = r.outcome;
    mix(static_cast<uint64_t>(o.exit_code) ^ (o.test_failed ? 0x100 : 0) ^
        (o.crashed ? 0x200 : 0) ^ (o.hung ? 0x400 : 0) ^ (o.fault_triggered ? 0x800 : 0));
    mix(o.new_blocks_covered);
    for (uint32_t block : o.new_block_ids) {
      mix(block);
    }
    for (const std::string& frame : o.injection_stack) {
      mix_string(frame);
    }
    mix_string(o.detail);
  }
  return h;
}

std::string JsonString(const std::string& s) {
  return "\"" + bench::JsonEscapeHostField(s) + "\"";
}

std::string JsonList(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(17);
  out << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "]";
  return out.str();
}

double CpuUs(const timeval& user, const timeval& sys) {
  return 1e6 * static_cast<double>(user.tv_sec + sys.tv_sec) +
         static_cast<double>(user.tv_usec + sys.tv_usec);
}

// Peak RSS of this process image. Not getrusage's ru_maxrss: exec keeps
// that from the image it replaced, so it would report run.py's own size
// whenever run.py is the larger.
size_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoul(line.substr(6));
    }
  }
  Fail("no VmHWM in /proc/self/status");
}

// CPU time of this process and of the children it has reaped.
struct CpuTimes {
  double self_us = 0.0;
  double children_us = 0.0;
};

CpuTimes CpuNow() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return {CpuUs(self.ru_utime, self.ru_stime), CpuUs(children.ru_utime, children.ru_stime)};
}

// What one finished campaign's records say, taken while its session is
// still alive (copying the records would distort peak RSS).
struct Summary {
  size_t executed = 0;
  bool exhausted = false;
  uint64_t digest = 0;
  size_t unique_failures = 0;
  size_t unique_crashes = 0;
  size_t blocks_covered = 0;  // distinct ids, so it is exact under --jobs too
  size_t triggered = 0;
  size_t new_cluster_triggered = 0;
  size_t ops_failed = 0;  // harness errors ("exec:" details), not target behaviour
  size_t sim_steps = 0;
  uint64_t forkserver_restarts = 0;
  std::vector<std::string> missing_signatures;
};

Summary Summarize(const SessionResult& result, const Rig& rig) {
  Summary s;
  s.executed = result.tests_executed;
  s.exhausted = result.space_exhausted;
  s.digest = DigestRecords(result.records);
  s.unique_failures = result.unique_failures;
  s.unique_crashes = result.unique_crashes;
  const std::vector<Signature>& signatures = rig.workload->signatures;
  std::vector<bool> found(signatures.size(), false);
  std::unordered_set<size_t> seen_clusters;
  std::unordered_set<uint32_t> blocks;
  const Axis& test_axis = rig.space.axis(0);
  for (const SessionRecord& r : result.records) {
    const TestOutcome& o = r.outcome;
    if (o.detail.rfind("exec:", 0) == 0) {
      ++s.ops_failed;
    }
    if (o.fault_triggered) {
      ++s.triggered;
      if (seen_clusters.insert(r.cluster_id).second) {
        ++s.new_cluster_triggered;
      }
    }
    blocks.insert(o.new_block_ids.begin(), o.new_block_ids.end());
    for (size_t i = 0; i < signatures.size(); ++i) {
      if ((signatures[i].test_label.empty() ||
           test_axis.Label(r.fault[0]) == signatures[i].test_label) &&
          o.detail.find(signatures[i].needle) != std::string::npos) {
        found[i] = true;
      }
    }
  }
  s.blocks_covered = blocks.size();
  for (size_t i = 0; i < signatures.size(); ++i) {
    if (!found[i]) {
      s.missing_signatures.push_back(signatures[i].needle);
    }
  }
  for (const auto& backend : rig.backends) {
    s.sim_steps += backend->total_sim_steps();
    if (auto* real = dynamic_cast<exec::RealTargetHarness*>(backend.get());
        real != nullptr && real->forkserver() != nullptr) {
      s.forkserver_restarts += real->forkserver()->restarts();
    }
  }
  return s;
}

// A throw-away set-up, built as the campaign's own is (rig, explorer,
// journal, session) and run to its first record, in its own directory.
// Returns its seconds.
double ExtraSetUp(const Workload& w, uint64_t seed, const std::string& dir) {
  Probe probe(false, 1);
  const uint64_t start = obs::NowNs();
  Rig rig;
  BuildRig(rig, w, seed, dir, probe);
  auto inner = MakeExplorer(rig);
  TimedExplorer explorer(*inner, probe);
  CampaignStore store = CampaignStore::Create(dir + "/campaign.afexj", rig.meta);
  SessionConfig config;
  config.redundancy_feedback = true;
  config.record_observer = [&probe, observer = store.MakeObserver()](
                               const SessionRecord& record) {
    probe.OnRecord(obs::NowNs());
    observer(record);
  };
  Session session(rig, explorer, std::move(config), probe);
  session.Run(SearchTarget{.max_tests = 1});
  return 1e-9 * static_cast<double>(probe.first_record_ns() - start);
}

// A throw-away resume over a copy of the campaign's half-budget journal,
// on a rig of its own, timed as the campaign's own resume is (explorer
// construction through SeedCoverage). Returns its seconds.
double ExtraResume(const Workload& w, uint64_t seed, const std::string& dir,
                   const std::string& half_journal, size_t first_half) {
  Probe probe(false, w.budget);
  Rig rig;
  BuildRig(rig, w, seed, dir, probe);
  const std::string journal = dir + "/campaign.afexj";
  std::filesystem::copy_file(half_journal, journal);
  const uint64_t start = obs::NowNs();
  auto inner = MakeExplorer(rig);
  TimedExplorer explorer(*inner, probe);
  CampaignStore store = CampaignStore::Open(journal, rig.meta);
  SessionConfig config;
  config.redundancy_feedback = true;
  config.record_observer = store.MakeObserver();
  Session session(rig, explorer, std::move(config), probe);
  probe.set_live(false);
  if (session.Replay(store.records(), SearchTarget{.max_tests = w.budget}) != first_half) {
    Fail("the journal did not replay against its own configuration");
  }
  store.CommitResume(first_half);
  for (size_t i = 0; i < rig.backends.size(); ++i) {
    rig.backends[i]->SeedCoverage(store.CoverageIdsForNode(i));
  }
  return 1e-9 * static_cast<double>(obs::NowNs() - start);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  std::string mode = "campaign";
  std::string work_dir;
  std::string out;
  bool trace = false;
};

int RunWorkload(const Options& options) {
  const Workload* w = FindWorkload(options.workload);
  if (w == nullptr) {
    Fail("unknown workload '" + options.workload + "'");
  }
  if (w->jobs > std::thread::hardware_concurrency()) {
    Fail(w->name + " needs " + std::to_string(w->jobs) + " worker threads but only " +
        std::to_string(std::thread::hardware_concurrency()) + " cores are online");
  }
  const bool resume = options.mode == "campaign";
  if (!resume && options.mode != "uninterrupted") {
    Fail("unknown mode '" + options.mode + "'");
  }
  // Absolute: the forkserver and the sandboxes do not share our cwd.
  const std::string work_dir = std::filesystem::absolute(options.work_dir).string();
  std::filesystem::create_directories(work_dir);
  const std::string journal = work_dir + "/campaign.afexj";
  const size_t budget = w->budget;

  Probe probe(options.trace, budget);
  PhaseSink sink(probe);
  // The sink only serves the exec phase events of serial real-backend
  // workloads: on microsecond sim tests its phase timers would cost more
  // than the spans themselves.
  obs::MetricsSink* metrics =
      options.trace && w->kind != Kind::kSim && w->jobs == 1 ? &sink : nullptr;

  // ---- set-up: analysis, harnesses, space, explorer, journal, first record.
  const uint64_t setup_start = obs::NowNs();
  Rig rig;
  BuildRig(rig, *w, options.seed, work_dir, probe);
  for (auto& backend : rig.backends) {
    backend->set_metrics_sink(metrics);
  }
  std::optional<CampaignStore> store;
  uint64_t journal_header_bytes = 0;
  size_t timed_tests = 0;
  double timed_wall_s = 0.0;
  std::vector<double> setups;
  std::vector<double> resumes;
  CpuTimes extra_cpu;  // of the throw-away samples, left out of the report
  const uint64_t first_half = resume ? budget / 2 : budget;

  auto session_config = [&] {
    SessionConfig config;
    config.redundancy_feedback = true;
    config.metrics = metrics;
    config.record_observer = [&probe, observer = store->MakeObserver()](
                                 const SessionRecord& record) {
      const uint64_t start = obs::NowNs();
      probe.OnRecord(start);
      observer(record);
      if (probe.traced()) {
        probe.OnAppended(start, obs::NowNs());
      }
    };
    return config;
  };
  auto timed_run = [&](Session& session, uint64_t max_tests) -> const SessionResult& {
    const uint64_t start = obs::NowNs();
    const SessionResult& r = session.Run(SearchTarget{.max_tests = max_tests});
    const uint64_t end = obs::NowNs();
    if (probe.traced()) {
      probe.Add(kCampaignRun, -1, -1, start, end);
    }
    return r;
  };

  // Phase A: a fresh campaign up to the first half (or the whole budget).
  Summary summary;
  {
    auto inner = MakeExplorer(rig);
    TimedExplorer explorer(*inner, probe);
    store.emplace(CampaignStore::Create(journal, rig.meta));
    journal_header_bytes = std::filesystem::file_size(journal);
    Session session(rig, explorer, session_config(), probe);
    const SessionResult& a = timed_run(session, first_half);
    const uint64_t end = obs::NowNs();
    setups.push_back(1e-9 * static_cast<double>(probe.first_record_ns() - setup_start));
    timed_tests += a.tests_executed - 1;
    timed_wall_s += 1e-9 * static_cast<double>(end - probe.first_record_ns());
    if (!resume) {
      summary = Summarize(a, rig);
    }
  }
  // Phase B: what a restarted afex_cli --resume does — fresh explorer and
  // session, the journal reopened and replayed, then the rest of the
  // budget, run in w->repeats stretches with a throw-away set-up and
  // resume between them.
  if (resume) {
    const std::string half_journal = work_dir + "/half.afexj";
    if (w->repeats > 1) {
      std::filesystem::copy_file(journal, half_journal);
    }
    store.reset();
    probe.BeginResume();
    const uint64_t resume_start = obs::NowNs();
    auto inner = MakeExplorer(rig);
    TimedExplorer explorer(*inner, probe);
    uint64_t t = obs::NowNs();
    store.emplace(CampaignStore::Open(journal, rig.meta));
    if (probe.traced()) {
      probe.Add(kCampaignOpen, -1, -1, t, obs::NowNs());
    }
    Session session(rig, explorer, session_config(), probe);
    t = obs::NowNs();
    probe.set_live(false);
    std::optional<size_t> consumed =
        session.Replay(store->records(), SearchTarget{.max_tests = budget});
    probe.set_live(true);
    if (probe.traced()) {
      probe.Add(kCampaignReplay, -1, -1, t, obs::NowNs());
    }
    if (!consumed.has_value() || *consumed != first_half) {
      Fail("the journal did not replay against its own configuration");
    }
    t = obs::NowNs();
    store->CommitResume(*consumed);
    if (probe.traced()) {
      probe.Add(kCampaignCommitResume, -1, -1, t, obs::NowNs());
    }
    for (size_t i = 0; i < rig.backends.size(); ++i) {
      rig.backends[i]->SeedCoverage(store->CoverageIdsForNode(i));
    }
    resumes.push_back(1e-9 * static_cast<double>(obs::NowNs() - resume_start));
    for (size_t k = 1; k <= w->repeats; ++k) {
      const uint64_t start = obs::NowNs();
      const SessionResult& b =
          timed_run(session, first_half + (budget - first_half) * k / w->repeats);
      const uint64_t end = obs::NowNs();
      // The first stretch starts at the first new test, after the resume.
      const uint64_t from = k == 1 ? probe.first_live_issue_ns() : start;
      timed_wall_s += 1e-9 * static_cast<double>(end - from);
      if (k == w->repeats) {
        timed_tests += b.tests_executed - first_half;
        summary = Summarize(b, rig);
        break;
      }
      const CpuTimes before = CpuNow();
      const std::string dir = work_dir + "/extra" + std::to_string(k);
      setups.push_back(ExtraSetUp(*w, options.seed, dir + "-setup"));
      resumes.push_back(ExtraResume(*w, options.seed, dir + "-resume", half_journal, first_half));
      const CpuTimes after = CpuNow();
      extra_cpu.self_us += after.self_us - before.self_us;
      extra_cpu.children_us += after.children_us - before.children_us;
    }
  }
  const uint64_t journal_bytes = std::filesystem::file_size(journal);
  store.reset();

  // Harness teardown stops the forkservers, so their children's CPU time
  // is in RUSAGE_CHILDREN from here on.
  rig.backends.clear();
  const CpuTimes cpu = CpuNow();

  {
    std::ofstream lat(options.out + ".lat", std::ios::binary);
    const std::vector<uint64_t>& lats = probe.latencies_ns();
    // The first record belongs to set-up.
    if (lats.size() > 1) {
      lat.write(reinterpret_cast<const char*>(lats.data() + 1),
                static_cast<std::streamsize>((lats.size() - 1) * sizeof(uint64_t)));
    }
  }
  if (options.trace && !probe.WriteSpans(options.out + ".spans")) {
    Fail("cannot write " + options.out + ".spans");
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"workload\": " << JsonString(w->name) << ", \"seed\": " << options.seed
       << ", \"mode\": " << JsonString(options.mode) << ", \"traced\": "
       << (options.trace ? "true" : "false") << ", \"budget\": " << budget
       << ", \"space_points\": " << rig.space.TotalPoints()
       << ", \"tests_executed\": " << summary.executed
       << ", \"space_exhausted\": " << (summary.exhausted ? "true" : "false")
       << ", \"digest\": \"" << std::hex << summary.digest << std::dec << "\""
       << ", \"setup_samples_s\": " << JsonList(setups)
       << ", \"resume_samples_s\": " << JsonList(resumes)
       << ", \"timed_tests\": " << timed_tests << ", \"timed_wall_s\": " << timed_wall_s
       << ", \"unique_failures\": " << summary.unique_failures
       << ", \"unique_crashes\": " << summary.unique_crashes
       << ", \"blocks_covered\": " << summary.blocks_covered
       << ", \"triggered\": " << summary.triggered
       << ", \"new_cluster_triggered\": " << summary.new_cluster_triggered
       << ", \"ops_failed\": " << summary.ops_failed << ", \"sim_steps\": " << summary.sim_steps
       << ", \"forkserver_restarts\": " << summary.forkserver_restarts
       << ", \"journal_bytes\": " << journal_bytes - journal_header_bytes
       << ", \"peak_rss_kb\": " << PeakRssKb()
       << ", \"cpu_self_us\": " << cpu.self_us - extra_cpu.self_us
       << ", \"cpu_children_us\": " << cpu.children_us - extra_cpu.children_us
       << ", \"missing_signatures\": [";
  for (size_t i = 0; i < summary.missing_signatures.size(); ++i) {
    json << (i == 0 ? "" : ", ") << JsonString(summary.missing_signatures[i]);
  }
  json << "]}\n";
  std::ofstream out(options.out);
  out << json.str();
  if (!out) {
    Fail("cannot write " + options.out);
  }
  return 0;
}

// Build provenance and workload parameters for run.py. A non-Release or
// sanitizer build is refused here, before anything is measured.
int Describe() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  bool sanitized = PERFBENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (build_type != "Release" || sanitized) {
    Fail("refusing to benchmark a " + build_type + (sanitized ? " sanitizer" : "") +
        " build; configure with -DCMAKE_BUILD_TYPE=Release and no sanitizers");
  }
  std::ostringstream json;
  json << "{" << bench::HostJson() << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": " << JsonString(build_type)
       << ", \"sancov_mode\": " << JsonString(PERFBENCH_SANCOV_MODE)
       << ", \"span_names\": [";
  for (uint32_t i = 0; i < kSpanNameCount; ++i) {
    json << (i == 0 ? "" : ", ") << JsonString(kSpanNames[i]);
  }
  json << "], \"workloads\": [";
  bool first = true;
  for (const Workload& w : Workloads()) {
    json << (first ? "" : ", ") << "{\"name\": " << JsonString(w.name)
         << ", \"sim\": " << (w.kind == Kind::kSim ? "true" : "false")
         << ", \"jobs\": " << w.jobs << ", \"budget\": " << w.budget
         << ", \"seeds_per_run\": " << w.seeds_per_run << ", \"campaign_s\": " << w.campaign_s
         << "}";
    first = false;
  }
  json << "]}\n";
  std::fputs(json.str().c_str(), stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Options& options, bool& describe) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag, std::string& out) {
      const std::string prefix = std::string("--") + flag + "=";
      if (arg.rfind(prefix, 0) != 0) {
        return false;
      }
      out = arg.substr(prefix.size());
      return true;
    };
    std::string seed;
    if (arg == "--describe") {
      describe = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (value("seed", seed)) {
      char* end = nullptr;
      options.seed = std::strtoull(seed.c_str(), &end, 10);
      if (seed.empty() || *end != '\0') {
        return false;
      }
    } else if (!value("workload", options.workload) && !value("mode", options.mode) &&
               !value("work-dir", options.work_dir) && !value("out", options.out)) {
      return false;
    }
  }
  return describe || (!options.workload.empty() && !options.work_dir.empty() &&
                      !options.out.empty());
}

}  // namespace
}  // namespace perfbench
}  // namespace afex

int main(int argc, char** argv) {
  afex::perfbench::Options options;
  bool describe = false;
  if (!afex::perfbench::ParseArgs(argc, argv, options, describe)) {
    std::fprintf(stderr,
                 "usage: afex_perfbench --describe\n"
                 "       afex_perfbench --workload=NAME --seed=N "
                 "--mode=campaign|uninterrupted --work-dir=DIR --out=FILE [--trace]\n");
    return 2;
  }
  try {
    return describe ? afex::perfbench::Describe() : afex::perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afex_perfbench: %s\n", e.what());
    return 1;
  }
}
