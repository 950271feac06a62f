// Golden record digests: the behavioural contract of the exploration loop.
// Every cell runs one seeded sim campaign and compares RecordDigest over its
// records against a value committed from a known-good build, so any change
// to issue order, scoring, clustering or per-node execution shows up here
// even when the aggregate counts happen to agree. One node runs through the
// single-runner ExplorationSession constructor; two, four and eight nodes
// run through ParallelSession, one NodeManager and harness per node. Eight
// nodes is more than a CI runner has cores, so those cells also pin the
// oversubscribed round hand-off.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/node_manager.h"
#include "cluster/parallel_session.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "core/session.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "targets/webserver/suite.h"

namespace afex {
namespace {

constexpr size_t kBudget = 1000;  // a multiple of every node count below

struct Cell {
  const char* target;
  bool fitness;  // fitness with redundancy feedback, else random
  uint64_t seed;
  size_t jobs;
  uint64_t digest;
};

// One simulated campaign's fixed inputs: the target's suite and space, and
// a fresh harness per node (each node accumulates coverage locally).
class Campaign {
 public:
  Campaign(const std::string& target, bool fitness, uint64_t seed)
      : fitness_(fitness), seed_(seed) {
    size_t max_call = 0;
    if (target == "minidb") {
      suite_ = minidb::MakeSuite();
      max_call = 100;
    } else if (target == "webserver") {
      suite_ = webserver::MakeSuite();
      max_call = 10;
    } else {
      suite_ = docstore::MakeSuiteV20();
      max_call = 24;
    }
    space_ = TargetHarness(suite_, HarnessSeed()).MakeSpace(max_call);
  }

  std::unique_ptr<Explorer> MakeExplorer() const {
    if (fitness_) {
      return std::make_unique<FitnessExplorer>(space_, FitnessExplorerConfig{.seed = seed_});
    }
    return std::make_unique<RandomExplorer>(space_, seed_);
  }

  SessionConfig Config() const {
    SessionConfig config;
    config.redundancy_feedback = fitness_;
    return config;
  }

  ExplorationSession::Runner NewNode() {
    harnesses_.push_back(std::make_unique<TargetHarness>(suite_, HarnessSeed()));
    return harnesses_.back()->MakeRunner(space_);
  }

  std::vector<std::unique_ptr<NodeManager>> NewManagers(size_t jobs) {
    std::vector<std::unique_ptr<NodeManager>> managers;
    for (size_t i = 0; i < jobs; ++i) {
      managers.push_back(std::make_unique<NodeManager>("node" + std::to_string(i),
                                                       NodeManager::Hooks{.test = NewNode()}));
    }
    return managers;
  }

  // The campaign at `jobs` nodes, run to the budget.
  SessionResult Run(size_t jobs) {
    std::unique_ptr<Explorer> explorer = MakeExplorer();
    if (jobs == 1) {
      ExplorationSession session(*explorer, NewNode(), Config());
      return session.Run({.max_tests = kBudget});
    }
    ParallelSession session(*explorer, NewManagers(jobs), Config());
    return session.Run({.max_tests = kBudget});
  }

 private:
  uint64_t HarnessSeed() const { return seed_ ^ 0x5eed; }

  bool fitness_;
  uint64_t seed_;
  TargetSuite suite_;
  FaultSpace space_;
  std::vector<std::unique_ptr<TargetHarness>> harnesses_;
};

void ExpectSameResult(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(RecordDigest(a.records), RecordDigest(b.records));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].impact, b.records[i].impact) << "record " << i;
  }
  EXPECT_EQ(a.tests_executed, b.tests_executed);
  EXPECT_EQ(a.failed_tests, b.failed_tests);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.hangs, b.hangs);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.unique_failures, b.unique_failures);
  EXPECT_EQ(a.unique_crashes, b.unique_crashes);
  EXPECT_EQ(a.blocks_covered, b.blocks_covered);
  EXPECT_EQ(a.total_impact, b.total_impact);
  EXPECT_EQ(a.space_exhausted, b.space_exhausted);
}

// clang-format off
const Cell kCells[] = {
    {"minidb", true, 1, 1, 0x0a68d4b7f4109942},
    {"minidb", true, 1, 2, 0x7e3a2e81efbe5cca},
    {"minidb", true, 1, 4, 0xa1dbe1e3142f11ff},
    {"minidb", true, 2, 1, 0xcf34636b95d12d5e},
    {"minidb", true, 2, 2, 0x91643eba3fb895b7},
    {"minidb", true, 2, 4, 0xf4ff3841adbcb2be},
    {"minidb", false, 1, 1, 0xe7af6b47ee2c0783},
    {"minidb", false, 1, 2, 0x0b16f1952062c496},
    {"minidb", false, 1, 4, 0x2e87ae53317491bf},
    {"minidb", false, 2, 1, 0xc2974e00b97da477},
    {"minidb", false, 2, 2, 0x1e3473695b56f1c2},
    {"minidb", false, 2, 4, 0xf6a774b88492aa79},
    {"webserver", true, 1, 1, 0x65e16b70ee0a8952},
    {"webserver", true, 1, 2, 0x414cb6fc12219d52},
    {"webserver", true, 1, 4, 0x6bb0f1107736651b},
    {"webserver", true, 2, 1, 0x0ab76b753187c3fe},
    {"webserver", true, 2, 2, 0x2e5f97dfb401c220},
    {"webserver", true, 2, 4, 0x48c7807dbb757acf},
    {"webserver", false, 1, 1, 0x5817c5aae35c0e0d},
    {"webserver", false, 1, 2, 0x6464263686bed9e0},
    {"webserver", false, 1, 4, 0xa996b37b61621fe8},
    {"webserver", false, 2, 1, 0xcaa00e67d0fbe44f},
    {"webserver", false, 2, 2, 0x6d0559a5d6e8618a},
    {"webserver", false, 2, 4, 0x82997262dfa17be0},
    {"docstore", true, 1, 1, 0x4f652fc61f20c39a},
    {"docstore", true, 1, 2, 0x528e715632981b2e},
    {"docstore", true, 1, 4, 0xe80b932b3ca8ad35},
    {"docstore", true, 2, 1, 0x6f17b0b192adb793},
    {"docstore", true, 2, 2, 0xde1769718f27bcc9},
    {"docstore", true, 2, 4, 0x209a31509c633dc3},
    {"docstore", false, 1, 1, 0xd573ef313dc0d021},
    {"docstore", false, 1, 2, 0x4e194e5decb705cd},
    {"docstore", false, 1, 4, 0xcb5ed1fd5bcce9da},
    {"docstore", false, 2, 1, 0x532bf5ffb0d25dd7},
    {"docstore", false, 2, 2, 0xa1918e46dca1f745},
    {"docstore", false, 2, 4, 0xfc26294425974e14},
    {"minidb", true, 1, 8, 0xaa7f56ab567ad241},
    {"minidb", true, 2, 8, 0x005d7c36458b83a7},
    {"minidb", false, 1, 8, 0x3f788ee4e2c5eb44},
    {"minidb", false, 2, 8, 0xdb19a82746783c83},
};
// clang-format on

std::string CellName(const Cell& c) {
  return std::string(c.target) + (c.fitness ? "_fitness" : "_random") + "_seed" +
         std::to_string(c.seed) + "_jobs" + std::to_string(c.jobs);
}

class GoldenDigestTest : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenDigestTest, RecordsMatchCommittedDigest) {
  const Cell& cell = GetParam();
  Campaign campaign(cell.target, cell.fitness, cell.seed);
  SessionResult result = campaign.Run(cell.jobs);
  ASSERT_EQ(result.tests_executed, kBudget);
  const uint64_t digest = RecordDigest(result.records);
  EXPECT_EQ(digest, cell.digest) << "actual digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(Sim, GoldenDigestTest, ::testing::ValuesIn(kCells),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return CellName(info.param);
                         });

// A one-node cluster is the serial campaign, record for record.
TEST(GoldenSessionTest, OneNodeParallelSessionMatchesSerial) {
  for (const Cell& cell : kCells) {
    if (cell.jobs != 1) {
      continue;
    }
    SCOPED_TRACE(CellName(cell));
    Campaign campaign(cell.target, cell.fitness, cell.seed);
    SessionResult serial = campaign.Run(1);
    std::unique_ptr<Explorer> explorer = campaign.MakeExplorer();
    ParallelSession one_node(*explorer, campaign.NewManagers(1), campaign.Config());
    EXPECT_EQ(one_node.manager_count(), 1u);
    ExpectSameResult(one_node.Run({.max_tests = kBudget}), serial);
  }
}

// Step() is one round: repeated to the budget it rebuilds Run's records.
TEST(GoldenSessionTest, StepToBudgetMatchesRunUnderFourNodes) {
  for (const Cell& cell : kCells) {
    if (cell.jobs != 4) {
      continue;
    }
    SCOPED_TRACE(CellName(cell));
    Campaign campaign(cell.target, cell.fitness, cell.seed);
    SessionResult run = campaign.Run(4);
    std::unique_ptr<Explorer> explorer = campaign.MakeExplorer();
    ParallelSession stepped(*explorer, campaign.NewManagers(4), campaign.Config());
    while (stepped.result().tests_executed < kBudget) {
      ASSERT_TRUE(stepped.Step());
    }
    EXPECT_EQ(stepped.result().tests_executed, kBudget);
    EXPECT_EQ(RecordDigest(stepped.result().records), cell.digest);
    EXPECT_EQ(RecordDigest(stepped.result().records), RecordDigest(run.records));
  }
}

}  // namespace
}  // namespace afex
