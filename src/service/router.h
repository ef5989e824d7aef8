// Router: the service layer's read front-end (DESIGN.md §13).
//
// Translates client reads into per-shard engine reads through the ShardMap,
// always against the shards' pinned read views, so every request class has
// the same contract:
//
//   - Point reads (HasEdge / Degree / Neighbors) touch exactly one shard —
//     source-partitioning puts vertex v's whole adjacency on ShardOf(v) —
//     and never block on ingest (they read the view, not the engine).
//   - k-hop queries run a truncated BFS by per-shard frontier exchange:
//     each round partitions the frontier by owner, expands every shard's
//     slice in parallel against that shard's view, deduplicates across
//     shards with one shared atomic visited bitmap, and swaps the union in
//     as the next frontier (the PR 3 hybrid VertexSubset is the carrier).
//     All views are pinned once per query, so a k-hop observes one batch
//     boundary per shard even while ingest proceeds underneath it.
//
// Updates go to ShardedGraph directly (SubmitAndWait, SubmitInsert,
// SubmitDelete, Flush), whose submits return the SubmitStatus a caller must
// check: after Stop() they apply nothing and return kStopped.
#ifndef SRC_SERVICE_ROUTER_H_
#define SRC_SERVICE_ROUTER_H_

#include <cstdint>
#include <vector>

#include "src/service/sharded_graph.h"
#include "src/util/graph_types.h"

namespace lsg {

class Router {
 public:
  // The graph must outlive the router. Not owning: several routers (e.g.
  // per serving thread) can front one ShardedGraph.
  explicit Router(ShardedGraph& graph) : graph_(graph) {}

  // ---- Point reads (single shard, never block on ingest) ----

  bool HasEdge(VertexId src, VertexId dst) const;
  size_t Degree(VertexId v) const;
  std::vector<VertexId> Neighbors(VertexId v) const;

  // ---- k-hop (cross-shard frontier exchange) ----

  struct KHopResult {
    size_t reached = 0;        // distinct vertices within k hops, incl. source
    uint32_t hops = 0;         // rounds actually executed (< k if BFS dried up)
    size_t frontier_peak = 0;  // largest frontier seen (SLO telemetry)
  };
  KHopResult KHop(VertexId source, uint32_t k) const;

  ShardedGraph& graph() { return graph_; }
  const ShardedGraph& graph() const { return graph_; }

 private:
  ShardedGraph& graph_;
};

}  // namespace lsg

#endif  // SRC_SERVICE_ROUTER_H_
