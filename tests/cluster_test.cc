#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "cluster/node_manager.h"
#include "cluster/parallel_session.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "core/session.h"
#include "targets/coreutils/suite.h"
#include "targets/harness.h"

namespace afex {
namespace {

// side x side points; the round hand-off tests use a wider space for
// many rounds of many nodes.
FaultSpace MakeSpace(int64_t side = 20) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("x", 0, side - 1));
  axes.push_back(Axis::MakeInterval("y", 0, side - 1));
  return FaultSpace(std::move(axes), "synthetic");
}

TestOutcome SyntheticRunner(const Fault& f) {
  TestOutcome outcome;
  outcome.fault_triggered = true;
  outcome.injection_stack = {"main", "site" + std::to_string(f[0] % 3)};
  if (f[0] == 5) {
    outcome.test_failed = true;
  }
  if (f[0] == 9) {
    outcome.test_failed = true;
    outcome.crashed = true;
  }
  return outcome;
}

TEST(NodeManagerTest, RunsHooksInOrder) {
  std::vector<std::string> events;
  NodeManager manager("node0", {.startup = [&] { events.push_back("startup"); },
                                .test =
                                    [&](const Fault&) {
                                      events.push_back("test");
                                      return TestOutcome{};
                                    },
                                .cleanup = [&] { events.push_back("cleanup"); }});
  manager.Execute(Fault({0, 0}));
  EXPECT_EQ(events, (std::vector<std::string>{"startup", "test", "cleanup"}));
  EXPECT_EQ(manager.executed(), 1u);
}

TEST(NodeManagerTest, OptionalHooksMayBeEmpty) {
  NodeManager manager("node0", {.test = [](const Fault&) { return TestOutcome{}; }});
  manager.Execute(Fault({1, 1}));
  EXPECT_EQ(manager.executed(), 1u);
}

std::vector<std::unique_ptr<NodeManager>> MakeManagers(size_t n) {
  std::vector<std::unique_ptr<NodeManager>> managers;
  for (size_t i = 0; i < n; ++i) {
    managers.push_back(std::make_unique<NodeManager>(
        "node" + std::to_string(i), NodeManager::Hooks{.test = SyntheticRunner}));
  }
  return managers;
}

TEST(ParallelSessionTest, ExecutesExactlyMaxTests) {
  FaultSpace space = MakeSpace();
  RandomExplorer explorer(space, 1);
  ParallelSession session(explorer, MakeManagers(4));
  SessionResult result = session.Run({.max_tests = 50});
  EXPECT_EQ(result.tests_executed, 50u);
}

TEST(ParallelSessionTest, MatchesSerialCountsOnFullSpace) {
  // Over the whole space the counts must agree with a serial session,
  // regardless of execution order.
  FaultSpace space = MakeSpace();
  RandomExplorer parallel_explorer(space, 7);
  ParallelSession parallel(parallel_explorer, MakeManagers(8));
  SessionResult pr = parallel.Run({.max_tests = 400});

  RandomExplorer serial_explorer(space, 7);
  ExplorationSession serial(serial_explorer, SyntheticRunner);
  SessionResult sr = serial.Run({.max_tests = 400});

  EXPECT_EQ(pr.tests_executed, sr.tests_executed);
  EXPECT_EQ(pr.failed_tests, sr.failed_tests);
  EXPECT_EQ(pr.crashes, sr.crashes);
  EXPECT_EQ(pr.unique_crashes, sr.unique_crashes);
}

TEST(ParallelSessionTest, DeterministicForFixedManagerCount) {
  FaultSpace space = MakeSpace();
  auto run_once = [&] {
    RandomExplorer explorer(space, 3);
    ParallelSession session(explorer, MakeManagers(4));
    SessionResult result = session.Run({.max_tests = 100});
    std::vector<std::vector<size_t>> order;
    for (const SessionRecord& r : result.records) {
      order.push_back(r.fault.indices());
    }
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ParallelSessionTest, StopsOnCrashTarget) {
  FaultSpace space = MakeSpace();
  RandomExplorer explorer(space, 5);
  ParallelSession session(explorer, MakeManagers(4));
  SessionResult result = session.Run({.stop_after_crashes = 2});
  EXPECT_GE(result.crashes, 2u);
  // At most one extra round beyond the target.
  EXPECT_LE(result.crashes, 2u + 4u);
}

TEST(ParallelSessionTest, WorksWithFitnessExplorer) {
  FaultSpace space = MakeSpace();
  FitnessExplorer explorer(space, {.seed = 11});
  ParallelSession session(explorer, MakeManagers(4));
  SessionResult result = session.Run({.max_tests = 200});
  EXPECT_EQ(result.tests_executed, 200u);
  EXPECT_GT(result.failed_tests, 0u);
}

TEST(ParallelSessionTest, RealTargetThroughNodeManagers) {
  // End-to-end: coreutils harness behind per-node managers. Each node gets
  // its own harness (its own coverage accumulator), as on a real cluster.
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness shared_space_harness(suite);
  FaultSpace space = shared_space_harness.MakeSpace(2, true);

  std::vector<std::unique_ptr<NodeManager>> managers;
  std::vector<std::unique_ptr<TargetHarness>> harnesses;
  for (size_t i = 0; i < 3; ++i) {
    harnesses.push_back(std::make_unique<TargetHarness>(suite));
    TargetHarness* h = harnesses.back().get();
    managers.push_back(std::make_unique<NodeManager>(
        "node" + std::to_string(i),
        NodeManager::Hooks{.test = [h, &space](const Fault& f) { return h->RunFault(space, f); }}));
  }
  RandomExplorer explorer(space, 13);
  ParallelSession session(explorer, std::move(managers));
  SessionResult result = session.Run({.max_tests = 120});
  EXPECT_EQ(result.tests_executed, 120u);
  EXPECT_GT(result.failed_tests, 0u);  // ~12% of the space fails
}

// ---- round hand-off ----------------------------------------------------------

SessionConfig FeedbackConfig() {
  SessionConfig config;
  config.redundancy_feedback = true;
  return config;
}

// More nodes than the process has CPUs: the waiters sleep instead of spin.
size_t OversubscribedNodeCount() {
  return 2 * std::max(1u, std::thread::hardware_concurrency()) + 1;
}

TEST(RoundHandoffTest, ShortLastRoundsKeepTheBudgetAndMatchStep) {
  // Budget 10 ends on a two-slot round of four nodes, 4k+1 on a one-slot
  // round. Step() always runs whole rounds, so it overshoots; its first
  // `budget` records are Run's records.
  FaultSpace space = MakeSpace();
  for (size_t budget : {size_t{10}, size_t{4 * 50 + 1}}) {
    SCOPED_TRACE(budget);
    FitnessExplorer run_explorer(space, {.seed = 17});
    ParallelSession run(run_explorer, MakeManagers(4), FeedbackConfig());
    const SessionResult& result = run.Run({.max_tests = budget});
    ASSERT_EQ(result.records.size(), budget);
    EXPECT_EQ(result.tests_executed, budget);

    FitnessExplorer step_explorer(space, {.seed = 17});
    ParallelSession stepped(step_explorer, MakeManagers(4), FeedbackConfig());
    while (stepped.result().tests_executed < budget) {
      ASSERT_TRUE(stepped.Step());
    }
    std::vector<SessionRecord> prefix(stepped.result().records.begin(),
                                      stepped.result().records.begin() + budget);
    EXPECT_EQ(RecordDigest(prefix), RecordDigest(result.records));
  }
}

TEST(RoundHandoffTest, OversubscribedSessionCompletesDeterministically) {
  FaultSpace space = MakeSpace(100);
  const size_t nodes = OversubscribedNodeCount();
  const size_t budget = 5 * nodes + 3;
  auto run_once = [&] {
    FitnessExplorer explorer(space, {.seed = 23});
    ParallelSession session(explorer, MakeManagers(nodes), FeedbackConfig());
    const SessionResult& result = session.Run({.max_tests = budget});
    EXPECT_EQ(result.tests_executed, budget);
    return RecordDigest(result.records);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(RoundHandoffTest, EachNodeRunsOnOneThreadAtATime) {
  // A node's runner may move between threads from round to round, but never
  // runs on two at once, and its plain (non-atomic) state written on the
  // worker is visible to the calling thread after Run.
  constexpr size_t kNodes = 4;
  constexpr size_t kRounds = 500;
  struct Node {
    std::atomic<bool> in_use{false};
    size_t runs = 0;
    size_t last_x = 0;
  };
  std::vector<Node> nodes(kNodes);
  std::atomic<size_t> overlaps{0};
  std::vector<ExplorationSession::Runner> runners;
  for (size_t i = 0; i < kNodes; ++i) {
    runners.push_back([&node = nodes[i], &overlaps](const Fault& fault) {
      if (node.in_use.exchange(true, std::memory_order_acquire)) {
        overlaps.fetch_add(1, std::memory_order_relaxed);
      }
      ++node.runs;
      node.last_x = fault[0];
      TestOutcome outcome = SyntheticRunner(fault);
      node.in_use.store(false, std::memory_order_release);
      return outcome;
    });
  }
  FaultSpace space = MakeSpace(100);
  RandomExplorer explorer(space, 29);
  ExplorationSession session(explorer, std::move(runners));
  const SessionResult& result = session.Run({.max_tests = kNodes * kRounds - 2});
  EXPECT_EQ(overlaps.load(), 0u);
  ASSERT_EQ(result.records.size(), kNodes * kRounds - 2);
  // Node i runs slot i: every round but the two-slot last one uses all four.
  for (size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(nodes[i].runs, i < 2 ? kRounds : kRounds - 1) << "node " << i;
    const size_t last_record = (nodes[i].runs - 1) * kNodes + i;
    EXPECT_EQ(nodes[i].last_x, result.records[last_record].fault[0]) << "node " << i;
  }
}

TEST(RoundHandoffTest, RunnerExceptionReachesTheCallingThread) {
  // Whichever thread claims node 2's slot, its exception surfaces from Run
  // after the round, and the session still shuts down.
  std::vector<ExplorationSession::Runner> runners(4, SyntheticRunner);
  runners[2] = [](const Fault&) -> TestOutcome { throw std::runtime_error("node 2 down"); };
  FaultSpace space = MakeSpace();
  RandomExplorer explorer(space, 37);
  ExplorationSession session(explorer, std::move(runners));
  EXPECT_THROW(session.Run({.max_tests = 40}), std::runtime_error);
  EXPECT_EQ(session.result().tests_executed, 0u);
}

TEST(RoundHandoffTest, IdleSessionsJoinPromptly) {
  using Clock = std::chrono::steady_clock;
  FaultSpace space = MakeSpace();
  std::vector<SessionRecord> journal;
  {
    RandomExplorer explorer(space, 31);
    ParallelSession session(explorer, MakeManagers(4));
    journal = session.Run({.max_tests = 40}).records;
  }
  for (size_t nodes : {size_t{4}, OversubscribedNodeCount()}) {
    SCOPED_TRACE(nodes);
    Clock::time_point start;
    {
      RandomExplorer explorer(space, 31);
      ParallelSession never_run(explorer, MakeManagers(nodes));
      start = Clock::now();
    }
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
  }
  Clock::time_point start;
  {
    RandomExplorer explorer(space, 31);
    ParallelSession replayed(explorer, MakeManagers(4));
    EXPECT_EQ(replayed.Replay(journal, {.max_tests = 40}), std::optional<size_t>(40));
    EXPECT_EQ(replayed.result().tests_executed, 40u);
    start = Clock::now();
  }
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
}

}  // namespace
}  // namespace afex
