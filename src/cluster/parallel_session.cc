#include "cluster/parallel_session.h"

namespace afex {
namespace {

std::vector<ExplorationSession::Runner> ManagerRunners(
    std::vector<std::unique_ptr<NodeManager>> managers) {
  std::vector<ExplorationSession::Runner> runners;
  for (std::unique_ptr<NodeManager>& manager : managers) {
    std::shared_ptr<NodeManager> node = std::move(manager);
    runners.push_back([node](const Fault& fault) { return node->Execute(fault); });
  }
  return runners;
}

}  // namespace

ParallelSession::ParallelSession(Explorer& explorer,
                                 std::vector<std::unique_ptr<NodeManager>> managers,
                                 SessionConfig config)
    : ExplorationSession(explorer, ManagerRunners(std::move(managers)), std::move(config)) {}

}  // namespace afex
