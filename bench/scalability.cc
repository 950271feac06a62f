// Reproduces §7.7: (a) the number of tests executed per second grows with
// the number of node managers (the paper verified 1-14 EC2 nodes with
// virtually no overhead), and (b) the explorer in isolation generates
// thousands of tests per second (the paper measured ~8,500/s on a 2 GHz
// Xeon), so it can keep a large cluster fully busy.
//
// Part (a) runs the same seeded minidb fitness campaign (redundancy
// feedback on) at 1, 2 and 4 node managers, capped at the host's core
// count, each manager driving its own simulated harness. Nothing is padded
// with sleeps: simulated tests finish in microseconds, so the printed
// speedup is what the round-batched session achieves when per-round issue,
// dispatch and report are a real share of the work. The paper's tests take
// about a minute each, where that share vanishes. One more cell runs twice
// as many managers as cores: there the session's threads sleep between
// rounds instead of spinning, so that row shows the cost of the futex
// hand-off. Each cell is the best of a few trials; nothing is gated.
//
// Usage: scalability [BUDGET]   (default 20000 tests per campaign)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/node_manager.h"
#include "cluster/parallel_session.h"
#include "targets/minidb/suite.h"

using namespace afex;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kTrials = 3;

// Tests per second of one minidb campaign over `managers` node managers.
double CampaignRate(const TargetSuite& suite, const FaultSpace& space, size_t managers,
                    size_t budget) {
  std::vector<std::unique_ptr<TargetHarness>> harnesses;
  std::vector<std::unique_ptr<NodeManager>> nodes;
  for (size_t i = 0; i < managers; ++i) {
    harnesses.push_back(std::make_unique<TargetHarness>(suite));
    nodes.push_back(std::make_unique<NodeManager>(
        "node" + std::to_string(i),
        NodeManager::Hooks{.test = harnesses.back()->MakeRunner(space)}));
  }
  FitnessExplorer explorer(space, {.seed = 1});
  SessionConfig config;
  config.redundancy_feedback = true;
  ParallelSession session(explorer, std::move(nodes), config);
  auto start = Clock::now();
  const SessionResult& result = session.Run({.max_tests = budget});
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(result.tests_executed) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t budget = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());

  bench::PrintHeader("Scalability (paper 7.7): parallel node managers");
  TargetSuite suite = minidb::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(100, false);
  std::printf("minidb fitness campaign, %zu tests per run, best of %d trials, %zu cores\n\n",
              budget, kTrials, cores);
  std::printf("%10s %14s %12s %12s\n", "managers", "tests/sec", "speedup", "efficiency");

  std::vector<size_t> cells;
  for (size_t managers : {1, 2, 4}) {
    if (managers <= cores) {
      cells.push_back(managers);
    }
  }
  cells.push_back(2 * cores);  // oversubscribed
  double base_rate = 0.0;
  for (size_t managers : cells) {
    double rate = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      rate = std::max(rate, CampaignRate(suite, space, managers, budget));
    }
    if (managers == 1) {
      base_rate = rate;
    }
    std::printf("%10zu %14.0f %11.2fx %11.0f%%%s\n", managers, rate, rate / base_rate,
                100.0 * rate / base_rate / managers,
                managers > cores ? "  (2x cores: threads sleep between rounds)" : "");
  }

  // Explorer-only throughput on a Phi_MySQL-sized space.
  bench::PrintHeader("Explorer-only test generation throughput");
  FitnessExplorer explorer(space, {.seed = 2});
  const size_t kGenerate = 200000;
  auto start = Clock::now();
  for (size_t i = 0; i < kGenerate; ++i) {
    auto f = explorer.NextCandidate();
    if (!f.has_value()) {
      break;
    }
    // Report a cheap synthetic fitness so the feedback path is exercised.
    explorer.ReportResult(*f, static_cast<double>(i % 7));
  }
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("generated+reported %zu tests in %.2fs: %.0f tests/sec (paper: ~8,500/s)\n",
              kGenerate, seconds, kGenerate / seconds);
  return 0;
}
