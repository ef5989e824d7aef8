#include "src/service/router.h"

#include <memory>
#include <utility>

#include "src/core/edgemap.h"
#include "src/parallel/thread_pool.h"
#include "src/util/bitvector.h"

namespace lsg {

bool Router::HasEdge(VertexId src, VertexId dst) const {
  if (src >= graph_.num_vertices() || dst >= graph_.num_vertices()) {
    return false;
  }
  return graph_.ReadView(graph_.shard_map().ShardOf(src))->HasEdge(src, dst);
}

size_t Router::Degree(VertexId v) const {
  if (v >= graph_.num_vertices()) {
    return 0;
  }
  return graph_.ReadView(graph_.shard_map().ShardOf(v))->degree(v);
}

std::vector<VertexId> Router::Neighbors(VertexId v) const {
  std::vector<VertexId> out;
  if (v < graph_.num_vertices()) {
    graph_.ReadView(graph_.shard_map().ShardOf(v))->FillNeighbors(v, &out);
  }
  return out;
}

Router::KHopResult Router::KHop(VertexId source, uint32_t k) const {
  KHopResult result;
  const VertexId n = graph_.num_vertices();
  if (source >= n) {
    return result;
  }
  const uint32_t num_shards = graph_.num_shards();
  // Pin every shard's view once: the whole query reads one batch boundary
  // per shard no matter how many rounds it runs or what ingest does.
  std::vector<std::shared_ptr<const GraphSnapshot>> views(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    views[s] = graph_.ReadView(s);
  }
  ThreadPool& pool = graph_.service_pool();

  AtomicBitset visited(n);
  visited.Set(source);
  result.reached = 1;
  VertexSubset frontier = VertexSubset::Single(n, source);
  result.frontier_peak = 1;

  for (uint32_t hop = 0; hop < k && !frontier.empty(); ++hop) {
    // Partition the frontier by owning shard: each vertex's adjacency lives
    // entirely on ShardOf(v), so each slice expands against one view.
    std::vector<std::vector<VertexId>> mine(num_shards);
    for (VertexId v : frontier.vertices(&pool)) {
      mine[graph_.shard_map().ShardOf(v)].push_back(v);
    }
    // Expand all shards in parallel; the shared atomic visited bitmap
    // deduplicates across shards (TestAndSet admits each vertex once).
    std::vector<std::vector<VertexId>> discovered(num_shards);
    pool.ParallelFor(
        0, num_shards,
        [&](size_t s) {
          std::vector<VertexId>& out = discovered[s];
          for (VertexId v : mine[s]) {
            views[s]->map_neighbors(v, [&](VertexId u) {
              if (visited.TestAndSet(u)) {
                out.push_back(u);
              }
            });
          }
        },
        /*grain=*/1);
    size_t next_size = 0;
    for (uint32_t s = 0; s < num_shards; ++s) {
      next_size += discovered[s].size();
    }
    std::vector<VertexId> next;
    next.reserve(next_size);
    for (uint32_t s = 0; s < num_shards; ++s) {
      next.insert(next.end(), discovered[s].begin(), discovered[s].end());
    }
    result.reached += next.size();
    result.frontier_peak = std::max(result.frontier_peak, next.size());
    ++result.hops;
    frontier = VertexSubset::FromVertices(n, std::move(next));
  }
  return result;
}

}  // namespace lsg
