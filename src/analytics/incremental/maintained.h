// Binds an incremental query to an engine's batch boundaries
// (DESIGN.md §15).
//
// Maintenance runs inline on the mutating thread, against the live graph,
// before the mutating call returns: results are always fresh, and ingest
// pays the maintenance cost.
//
// The engine invokes observers on the mutating thread with the single
// writer discipline documented in batch_observer.h, so deltas arrive here
// in commit order.
#ifndef SRC_ANALYTICS_INCREMENTAL_MAINTAINED_H_
#define SRC_ANALYTICS_INCREMENTAL_MAINTAINED_H_

#include <span>
#include <utility>

#include "src/core/batch_observer.h"
#include "src/core/lsgraph.h"
#include "src/util/graph_types.h"

namespace lsg {

template <typename Query>
class MaintainedQuery : public BatchObserver {
 public:
  MaintainedQuery(LSGraph& graph, Query query)
      : graph_(&graph), query_(std::move(query)) {
    query_.Init(*graph_);
    graph_->AddBatchObserver(this);
  }

  ~MaintainedQuery() override { graph_->RemoveBatchObserver(this); }

  MaintainedQuery(const MaintainedQuery&) = delete;
  MaintainedQuery& operator=(const MaintainedQuery&) = delete;

  Query& query() { return query_; }
  const Query& query() const { return query_; }

  // BatchObserver: runs on the mutating thread after the gate releases.
  void OnBatchApplied(bool is_delete, std::span<const Edge> edges) override {
    std::span<const Edge> none;
    query_.Apply(*graph_, is_delete ? none : edges, is_delete ? edges : none);
  }

  void OnGraphReplaced() override {
    query_.Invalidate();
    query_.Init(*graph_);
  }

 private:
  LSGraph* graph_;
  Query query_;
};

}  // namespace lsg

#endif  // SRC_ANALYTICS_INCREMENTAL_MAINTAINED_H_
