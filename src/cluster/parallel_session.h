// ParallelSession: the cluster-mode exploration loop (paper §6.1) over
// NodeManagers. One explorer feeds a pool of node managers; tests are
// independent, so the system is embarrassingly parallel — the explorer's
// candidate generation is orders of magnitude cheaper than test execution,
// so it never bottlenecks the managers.
//
// It is an ExplorationSession with one node per manager: the same
// round-batched issue / execute / report loop, stop criteria and journal
// replay (core/session.h). Only the adaptation of each manager's
// startup -> test -> cleanup hooks into a node runner lives here.
#ifndef AFEX_CLUSTER_PARALLEL_SESSION_H_
#define AFEX_CLUSTER_PARALLEL_SESSION_H_

#include <memory>
#include <vector>

#include "cluster/node_manager.h"
#include "core/session.h"

namespace afex {

class ParallelSession : public ExplorationSession {
 public:
  // `managers` must be non-empty; the session owns them.
  ParallelSession(Explorer& explorer, std::vector<std::unique_ptr<NodeManager>> managers,
                  SessionConfig config = {});

  size_t manager_count() const { return node_count(); }
};

}  // namespace afex

#endif  // AFEX_CLUSTER_PARALLEL_SESSION_H_
