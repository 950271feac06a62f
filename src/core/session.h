// ExplorationSession: drives one fault-exploration run end to end (paper
// §6): pull candidates from an Explorer, execute each via a user-provided
// runner, score the outcome with the ImpactPolicy, optionally weigh fitness
// by environment relevance (§7.5) and by online redundancy feedback (§7.4),
// report fitness back to the explorer, and stop when the search target is
// met.
//
// A runner abstracts one node manager (start scripts, injectors, sensors);
// for the simulated targets it is a closure around a sim harness. The
// session is the prototype's one explorer feeding a pool of nodes (§6.1),
// executed in rounds: the explorer issues one candidate per node, the nodes
// run concurrently, then the results are reported in node order. Rounds
// keep the record sequence deterministic for a fixed node count, and give
// journal replay a reproducible issue / report interleaving. A one-node
// session is the serial campaign: each round issues, executes and reports
// exactly one test, on the calling thread.
//
// A multi-node round is handed to node_count() - 1 persistent workers
// through a few atomics, with no per-test allocation or lock (see the round
// state below). Any thread may run any slot, but slot i always runs node
// i's runner on node i's candidate, so where a slot runs never changes the
// records.
#ifndef AFEX_CORE_SESSION_H_
#define AFEX_CORE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/clustering.h"
#include "core/explorer.h"
#include "core/impact.h"
#include "core/relevance.h"
#include "obs/metrics.h"

namespace afex {

// Stopping criteria (paper §6.4 step 6: time, number of tests, thresholds on
// coverage / bugs found). Zero-valued fields are "no constraint"; the
// session stops at the first criterion met, or when the explorer exhausts
// the space.
struct SearchTarget {
  size_t max_tests = 0;
  // Stop once `stop_after_found` faults with impact >= impact_threshold have
  // been found (e.g. "find 3 disk faults that hang the DBMS").
  double impact_threshold = 0.0;
  size_t stop_after_found = 0;
  // Stop once this many crash-inducing faults have been found.
  size_t stop_after_crashes = 0;
};

// One executed test, in execution order.
struct SessionRecord {
  Fault fault;
  TestOutcome outcome;
  double impact = 0.0;   // ImpactPolicy score
  double fitness = 0.0;  // impact after relevance / redundancy weighting
  size_t cluster_id = 0;
};

// FNV-1a over every record's fault indices, fitness bit pattern, cluster id
// and full outcome (exit code, crash/hang/trigger flags, new-block ids,
// injection stack, detail). Two campaigns agree on it iff their record
// sequences are identical, so it is the behavioural contract the golden
// tests and the benches check.
uint64_t RecordDigest(const std::vector<SessionRecord>& records);

struct SessionConfig {
  ImpactPolicy policy;
  // Online redundancy feedback (paper §7.4): scale fitness linearly by
  // (1 - similarity to nearest previously seen injection stack trace).
  bool redundancy_feedback = false;
  ClusterConfig cluster_config;
  // Optional environment relevance model (paper §7.5); fitness is weighted
  // by the fault's relevance before being reported to the explorer.
  const EnvironmentModel* environment_model = nullptr;
  // Called with every *executed* record, in report order, right after it is
  // appended to the result. Replayed records (campaign resume) do not fire
  // it. The campaign journal hooks in here.
  std::function<void(const SessionRecord&)> record_observer;
  // Optional telemetry sink (obs/telemetry.h). Null disables every
  // instrumentation site at the cost of one predicted branch per phase.
  obs::MetricsSink* metrics = nullptr;
};

// TargetBackend: the execution side of a campaign — "run this fault against
// this space, observe the outcome" — plus the coverage bookkeeping the
// campaign store needs for resume and reporting. The simulated harness
// (targets/harness.h) and the real-process harness
// (exec/real_target_harness.h) both implement it, so the sessions, the
// campaign layer, and the CLI are backend-agnostic: the sim stays the fast
// path, real processes are an opt-in backend with identical semantics.
class TargetBackend {
 public:
  virtual ~TargetBackend() = default;

  // Executes one fault-injection test. Must be deterministic in `fault`
  // (and the backend's own seed) for campaign resume to hold.
  virtual TestOutcome RunFault(const FaultSpace& space, const Fault& fault) = 0;

  // Pre-seeds session coverage from journaled new-block ids, so a resumed
  // campaign keeps counting "new" relative to the whole campaign.
  virtual void SeedCoverage(const std::vector<uint32_t>& blocks) = 0;

  // Coverage accounting for reports. total_blocks == 0 means the backend
  // cannot enumerate blocks (coverage fractions read 0).
  virtual uint32_t coverage_total_blocks() const = 0;
  virtual uint32_t coverage_recovery_base() const = 0;
  virtual double CoverageFraction() const = 0;
  virtual double RecoveryCoverageFraction() const = 0;
  virtual size_t tests_run() const = 0;
  // Simulated instruction counter; real-process backends have none.
  virtual size_t total_sim_steps() const { return 0; }

  // Attaches a telemetry sink for backend-internal sub-phase timing
  // (sim decode/run/merge, real plan-write/fork-exec/...). Backends that
  // don't instrument themselves ignore it. Null detaches.
  virtual void set_metrics_sink(obs::MetricsSink* /*sink*/) {}
};

struct SessionResult {
  std::vector<SessionRecord> records;

  size_t tests_executed = 0;
  size_t failed_tests = 0;
  size_t crashes = 0;
  size_t hangs = 0;
  // Equivalence classes among *triggered* faults (paper §5); "unique"
  // counts are distinct clusters containing at least one failure / crash.
  size_t clusters = 0;
  size_t unique_failures = 0;
  size_t unique_crashes = 0;
  // Two-phase crash→recover→verify facets (real backend) and cumulative
  // distinct coverage blocks across all records — the discovery counters
  // the progress line and report surface alongside throughput.
  size_t recovery_failures = 0;
  size_t invariant_violations = 0;
  size_t blocks_covered = 0;
  double total_impact = 0.0;
  bool space_exhausted = false;
};

class ExplorationSession {
 public:
  using Runner = std::function<TestOutcome(const Fault&)>;

  // One runner per node; `runners` must be non-empty. Node i runs the i-th
  // candidate of every round, on the calling thread or on one of
  // runners.size() - 1 persistent workers (none for a single node).
  ExplorationSession(Explorer& explorer, std::vector<Runner> runners, SessionConfig config = {});

  // One-node session over `runner`.
  ExplorationSession(Explorer& explorer, Runner runner, SessionConfig config = {});

  // Backend-agnostic one-node form: runs every candidate through
  // `backend.RunFault(space, fault)`. Both must outlive the session.
  ExplorationSession(Explorer& explorer, TargetBackend& backend, const FaultSpace& space,
                     SessionConfig config = {});

  // Stops and joins the workers.
  ~ExplorationSession();
  ExplorationSession(const ExplorationSession&) = delete;
  ExplorationSession& operator=(const ExplorationSession&) = delete;

  // Runs rounds until the target is met or the space is exhausted; the last
  // round is shortened to the remaining max_tests budget. May be called
  // after Replay to continue a resumed campaign. Returns the accumulated
  // result (also available via result()).
  const SessionResult& Run(const SearchTarget& target);

  // Runs one more round of node_count() tests (fewer if the space runs
  // out); returns false when the explorer was exhausted before issuing any
  // candidate. Exposed so callers can
  // interleave their own bookkeeping (the figure benches sample the failure
  // curve every iteration this way).
  bool Step();

  // Rebuilds session state from journaled records without executing any
  // test, re-issuing explorer candidates in the same round-batched order
  // Run(target) would have used, verifying each against the record's fault
  // and routing the journaled outcome through the normal scoring /
  // clustering / feedback path (impact and fitness are recomputed, so a
  // resumed session is bit-identical to the uninterrupted one). Only whole
  // rounds are consumed: a trailing partial round — records lost to a
  // mid-round kill — is ignored and simply re-executes on the next Run,
  // which is equivalent because execution is deterministic. Returns the
  // number of records consumed, or nullopt when the explorer produced a
  // different candidate than the journal (journal/config mismatch). Does
  // not fire the record observer.
  std::optional<size_t> Replay(const std::vector<SessionRecord>& records,
                               const SearchTarget& target);

  // Replays one record as one round; true only when that record is a whole
  // round (a one-node session) and matches the explorer's next candidate.
  bool Replay(const SessionRecord& record);

  const SessionResult& result() const { return result_; }
  const RedundancyClusterer& clusterer() const { return clusterer_; }
  size_t node_count() const { return runners_.size(); }

 private:
  // Size of the next round given the remaining budget; 0 = stop.
  size_t RoundSize(const SearchTarget& target) const;
  // Issues, executes and reports one round of up to `size` tests; returns
  // false when the explorer was exhausted before the first candidate.
  bool RunRound(size_t size);
  void Execute(size_t slot);
  // Publishes a round of `size` >= 2 issued slots, claims slots alongside
  // the workers, waits until every slot has run, then rethrows what a
  // runner threw.
  void ExecuteRound(uint32_t size);
  // Claims and runs slots of the published round until none is left.
  void ClaimSlots();
  void WorkerLoop();
  // Issues one candidate per record, checks each against the record's
  // fault, then reports the journaled outcomes; false on a mismatch.
  bool ReplayRound(std::span<const SessionRecord> round);
  // The one scoring path for executed and replayed tests: score, weigh by
  // relevance and redundancy, cluster, report to the explorer, update the
  // counters, append the record and — for live executions only — fire the
  // record observer and the progress update.
  void Report(Fault fault, TestOutcome outcome, bool live);

  Explorer* explorer_;
  std::vector<Runner> runners_;
  SessionConfig config_;
  RedundancyClusterer clusterer_;
  SessionResult result_;
  // Round buffers, reused across rounds: slot i holds node i's candidate
  // and, once the round has executed, its outcome.
  std::vector<Fault> batch_;
  std::vector<TestOutcome> outcomes_;
  // What slot i's runner threw in a multi-node round, rethrown by the
  // calling thread once the round has finished.
  std::vector<std::exception_ptr> errors_;

  // Round state of a multi-node session. The calling thread publishes a
  // round by filling batch_, storing pending_ = size and then claim_ =
  // {size, next slot 0} (release), and finally bumping epoch_ (release) and
  // waking the workers. The workers and the calling thread claim slots with
  // fetch_add on claim_ (acquire) until the slot passes the size. Size and
  // next slot share one word, so a worker that wakes late sees either the
  // old round, fully claimed, or the new one, never a mix; that also covers
  // rounds shorter than the node count. Whoever runs a slot decrements
  // pending_ (release) and the one that takes it to 0 wakes the caller,
  // whose acquire load of 0 orders every slot's writes (outcomes_, the
  // runners' own state) before the report. Workers wait for epoch_ to move,
  // the caller for pending_ to reach 0: they spin with pause for a bounded
  // time when the nodes fit the process's CPUs (spin_), and otherwise go
  // straight to a futex wait.
  alignas(64) std::atomic<uint64_t> claim_{0};  // size << 32 | next slot
  alignas(64) std::atomic<uint32_t> pending_{0};
  alignas(64) std::atomic<uint32_t> epoch_{0};
  std::atomic<bool> stopping_{false};
  const bool spin_;
  std::vector<std::thread> workers_;
};

}  // namespace afex

#endif  // AFEX_CORE_SESSION_H_
