#include "core/session.h"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <unordered_set>

#include "util/log.h"

namespace afex {

namespace {

// How long a waiter spins before it sleeps: about one round's serial
// section (report, journal append, next issue), so that back-to-back rounds
// hand off without a futex wake.
constexpr std::chrono::microseconds kSpin(50);

size_t ProcessCpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Waits until `done(word)` holds and returns the value that satisfied it:
// first spinning with pause for up to kSpin (if `spin`), then in futex
// waits. Every load is acquire.
template <typename Done>
uint32_t Await(const std::atomic<uint32_t>& word, bool spin, Done done) {
  uint32_t value = word.load(std::memory_order_acquire);
  if (spin && !done(value)) {
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    do {
      for (int i = 0; i < 64 && !done(value); ++i) {
        CpuRelax();
        value = word.load(std::memory_order_acquire);
      }
    } while (!done(value) && std::chrono::steady_clock::now() < deadline);
  }
  while (!done(value)) {
    word.wait(value, std::memory_order_acquire);
    value = word.load(std::memory_order_acquire);
  }
  return value;
}

}  // namespace

uint64_t RecordDigest(const std::vector<SessionRecord>& records) {
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
    h = (h ^ 0xff) * 0x100000001b3ULL;  // terminator: "ab","c" != "a","bc"
  };
  for (const SessionRecord& r : records) {
    for (size_t i = 0; i < r.fault.dimensions(); ++i) {
      mix(r.fault[i]);
    }
    mix(std::bit_cast<uint64_t>(r.fitness));
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

ExplorationSession::ExplorationSession(Explorer& explorer, std::vector<Runner> runners,
                                       SessionConfig config)
    : explorer_(&explorer),
      runners_(std::move(runners)),
      config_(std::move(config)),
      clusterer_(config_.cluster_config),
      batch_(runners_.size()),
      outcomes_(runners_.size()),
      errors_(runners_.size()),
      spin_(runners_.size() <= ProcessCpuCount()) {
  workers_.reserve(runners_.size() - 1);
  for (size_t i = 1; i < runners_.size(); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExplorationSession::ExplorationSession(Explorer& explorer, Runner runner, SessionConfig config)
    : ExplorationSession(explorer, std::vector<Runner>{std::move(runner)}, std::move(config)) {}

ExplorationSession::ExplorationSession(Explorer& explorer, TargetBackend& backend,
                                       const FaultSpace& space, SessionConfig config)
    : ExplorationSession(
          explorer,
          Runner([&backend, &space](const Fault& fault) { return backend.RunFault(space, fault); }),
          std::move(config)) {}

ExplorationSession::~ExplorationSession() {
  stopping_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

size_t ExplorationSession::RoundSize(const SearchTarget& target) const {
  if (target.max_tests == 0) {
    return runners_.size();
  }
  return std::min(runners_.size(),
                  target.max_tests - std::min(target.max_tests, result_.tests_executed));
}

bool ExplorationSession::Step() { return RunRound(runners_.size()); }

bool ExplorationSession::RunRound(size_t size) {
  size_t issued = 0;
  for (; issued < size; ++issued) {
    obs::PhaseTimer next_timer(config_.metrics, obs::Phase::kExplorerNext);
    std::optional<Fault> candidate = explorer_->NextCandidate();
    next_timer.Finish();
    if (!candidate.has_value()) {
      result_.space_exhausted = true;
      break;
    }
    batch_[issued] = std::move(*candidate);
  }
  if (issued == 0) {
    return false;
  }
  if (issued == 1) {
    Execute(0);
  } else {
    ExecuteRound(static_cast<uint32_t>(issued));
  }
  // Report in node order: deterministic for a fixed node count.
  for (size_t slot = 0; slot < issued; ++slot) {
    Report(std::move(batch_[slot]), std::move(outcomes_[slot]), /*live=*/true);
  }
  return true;
}

void ExplorationSession::Execute(size_t slot) {
  // Timed on the executing thread: each worker's events land on its own
  // registry shard and trace track.
  obs::PhaseTimer run_timer(config_.metrics, obs::Phase::kBackendRun);
  outcomes_[slot] = runners_[slot](batch_[slot]);
}

void ExplorationSession::ExecuteRound(uint32_t size) {
  pending_.store(size, std::memory_order_relaxed);
  claim_.store(uint64_t{size} << 32, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  ClaimSlots();
  obs::PhaseTimer wait_timer(config_.metrics, obs::Phase::kSessionRoundWait);
  Await(pending_, spin_, [](uint32_t pending) { return pending == 0; });
  wait_timer.Finish();
  // A runner that threw on any thread fails the round here, as it would
  // have on a one-node session; the lowest slot's exception wins.
  std::exception_ptr error;
  for (uint32_t slot = 0; slot < size; ++slot) {
    if (error == nullptr) {
      error = errors_[slot];
    }
    errors_[slot] = nullptr;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void ExplorationSession::ClaimSlots() {
  while (true) {
    const uint64_t claim = claim_.fetch_add(1, std::memory_order_acquire);
    const auto slot = static_cast<uint32_t>(claim);
    if (slot >= claim >> 32) {
      return;
    }
    try {
      Execute(slot);
    } catch (...) {
      errors_[slot] = std::current_exception();
    }
    if (pending_.fetch_sub(1, std::memory_order_release) == 1) {
      pending_.notify_one();
    }
  }
}

void ExplorationSession::WorkerLoop() {
  uint32_t seen = 0;
  while (true) {
    seen = Await(epoch_, spin_, [seen](uint32_t epoch) { return epoch != seen; });
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    ClaimSlots();
  }
}

std::optional<size_t> ExplorationSession::Replay(const std::vector<SessionRecord>& records,
                                                 const SearchTarget& target) {
  size_t consumed = 0;
  while (true) {
    const size_t round = RoundSize(target);
    if (round == 0 || records.size() - consumed < round) {
      return consumed;
    }
    if (!ReplayRound(std::span(records).subspan(consumed, round))) {
      return std::nullopt;
    }
    consumed += round;
  }
}

bool ExplorationSession::Replay(const SessionRecord& record) {
  return runners_.size() == 1 && ReplayRound(std::span(&record, 1));
}

bool ExplorationSession::ReplayRound(std::span<const SessionRecord> round) {
  // Mirror RunRound's call order: the whole round is issued before any
  // result is reported (feedback-driven explorers depend on the
  // interleaving).
  for (const SessionRecord& record : round) {
    std::optional<Fault> candidate = explorer_->NextCandidate();
    if (!candidate.has_value() || !(*candidate == record.fault)) {
      return false;
    }
  }
  for (const SessionRecord& record : round) {
    Report(record.fault, record.outcome, /*live=*/false);
  }
  return true;
}

void ExplorationSession::Report(Fault fault, TestOutcome outcome, bool live) {
  SessionRecord record;
  record.fault = std::move(fault);
  record.outcome = std::move(outcome);
  record.impact = config_.policy.Score(record.outcome);
  record.fitness = record.impact;

  if (config_.environment_model != nullptr) {
    record.fitness *= config_.environment_model->Relevance(explorer_->space(), record.fault);
  }
  // Feedback weighting and cluster assignment share one sweep over the
  // cluster representatives (the observation measures similarity against
  // the representatives as they stood before this stack was assigned).
  static const std::vector<std::string> kNoStack;
  const bool want_similarity = config_.redundancy_feedback && record.outcome.fault_triggered;
  obs::PhaseTimer observe_timer(config_.metrics, obs::Phase::kClusterObserve);
  ClusterObservation observation = clusterer_.Observe(
      record.outcome.fault_triggered ? record.outcome.injection_stack : kNoStack,
      want_similarity);
  observe_timer.Finish();
  if (want_similarity) {
    // Paper §7.4: 100% stack similarity zeroes the fitness, 0% leaves it as
    // is; linear in between.
    record.fitness *= (1.0 - observation.similarity);
  }
  record.cluster_id = observation.cluster_id;

  explorer_->ReportResult(record.fault, record.fitness);

  ++result_.tests_executed;
  if (record.outcome.test_failed) {
    ++result_.failed_tests;
  }
  if (record.outcome.crashed) {
    ++result_.crashes;
  }
  if (record.outcome.hung) {
    ++result_.hangs;
  }
  if (record.outcome.recovery_failed) {
    ++result_.recovery_failures;
  }
  if (record.outcome.invariant_violated) {
    ++result_.invariant_violations;
  }
  // new_block_ids are disjoint across records by construction (each id is
  // new relative to the backend's accumulator), so the sum is the count of
  // distinct blocks the campaign has covered.
  result_.blocks_covered += record.outcome.new_block_ids.size();
  result_.total_impact += record.impact;
  result_.records.push_back(std::move(record));
  if (live && config_.record_observer) {
    config_.record_observer(result_.records.back());
  }
  // Progress fires only for live executions — replayed records already
  // counted in the original run and would skew the rate.
  if (live && config_.metrics != nullptr) {
    obs::ProgressUpdate update;
    update.tests_executed = result_.tests_executed;
    update.failed_tests = result_.failed_tests;
    update.crashes = result_.crashes;
    update.hangs = result_.hangs;
    update.clusters = clusterer_.cluster_count();
    update.recovery_failures = result_.recovery_failures;
    update.invariant_violations = result_.invariant_violations;
    update.covered_blocks = result_.blocks_covered;
    config_.metrics->OnTestExecuted(update);
  }
}

const SessionResult& ExplorationSession::Run(const SearchTarget& target) {
  // Progress toward the stop criteria is re-derived from the records
  // already present so a session resumed from a journal stops exactly where
  // the uninterrupted one would have.
  size_t found_above_threshold = 0;
  size_t crashes_found = 0;
  auto count = [&](const SessionRecord& r) {
    if (r.impact >= target.impact_threshold) {
      ++found_above_threshold;
    }
    if (r.outcome.crashed) {
      ++crashes_found;
    }
  };
  auto met = [&] {
    return (target.stop_after_found > 0 && found_above_threshold >= target.stop_after_found) ||
           (target.stop_after_crashes > 0 && crashes_found >= target.stop_after_crashes);
  };
  for (const SessionRecord& r : result_.records) {
    count(r);
  }
  while (!met()) {
    const size_t before = result_.records.size();
    if (!RunRound(RoundSize(target))) {
      break;
    }
    for (size_t i = before; i < result_.records.size(); ++i) {
      count(result_.records[i]);
    }
    if (before / 1000 != result_.records.size() / 1000) {
      AFEX_LOG(kInfo) << "session: " << result_.tests_executed << " tests, "
                      << result_.failed_tests << " failed, " << result_.crashes << " crashes";
    }
    if (result_.space_exhausted) {
      break;
    }
  }

  // Final quality characterization: count distinct behaviour clusters among
  // failures and crashes (paper Table 5's "unique" rows).
  std::unordered_set<size_t> failure_clusters;
  std::unordered_set<size_t> crash_clusters;
  for (const SessionRecord& r : result_.records) {
    if (!r.outcome.fault_triggered) {
      continue;
    }
    if (r.outcome.test_failed) {
      failure_clusters.insert(r.cluster_id);
    }
    if (r.outcome.crashed) {
      crash_clusters.insert(r.cluster_id);
    }
  }
  result_.clusters = clusterer_.cluster_count();
  result_.unique_failures = failure_clusters.size();
  result_.unique_crashes = crash_clusters.size();
  return result_;
}

}  // namespace afex
