// Quickstart: build a streaming graph, apply update batches, run analytics.
//
//   ./quickstart [edge_list.txt]
//
// Without an argument a small synthetic social-network-like graph is
// generated; with one, a SNAP-style "src dst" edge list is loaded.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "src/analytics/bfs.h"
#include "src/analytics/pagerank.h"
#include "src/core/lsgraph.h"
#include "src/gen/edge_io.h"
#include "src/gen/rmat.h"

int main(int argc, char** argv) {
  using namespace lsg;

  // 1. Get an edge list: from a file, or synthesized.
  std::vector<Edge> edges;
  VertexId num_vertices = 0;
  if (argc > 1) {
    try {
      edges = ReadEdgesText(argv[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    for (const Edge& e : edges) {
      num_vertices = std::max({num_vertices, e.src + 1, e.dst + 1});
    }
  } else {
    RmatGenerator gen({/*scale=*/14, 0.5, 0.1, 0.1}, /*seed=*/1);
    edges = gen.Generate(0, 200000);
    num_vertices = gen.num_vertices();
  }
  std::printf("loaded %zu edges over %u vertices\n", edges.size(),
              num_vertices);

  // 2. Build the engine. Options{} gives the paper defaults
  //    (alpha = 1.2, M = 4096, cache-line blocks).
  LSGraph graph(num_vertices);
  graph.BuildFromEdges(edges);
  std::printf("graph built: %llu unique directed edges, %.2f MB\n",
              static_cast<unsigned long long>(graph.num_edges()),
              graph.memory_footprint() / 1e6);

  // 3. Stream updates: batches are sorted, grouped by source vertex, and
  //    applied in parallel, one vertex per thread.
  RmatGenerator updates({14, 0.5, 0.1, 0.1}, /*seed=*/2);
  std::vector<Edge> batch = updates.Generate(0, 50000);
  size_t added = graph.InsertBatch(batch);
  std::printf("streamed a batch of %zu updates: %zu new edges\n",
              batch.size(), added);

  // 4. Analytics on the live graph. Kernels are templates over the engine;
  //    the same code runs against the Terrace/Aspen/PaC-tree baselines.
  ThreadPool& pool = ThreadPool::Global();
  // Push-only: loaded edge lists are not necessarily symmetrized, and the
  // pull direction of the default auto-BFS assumes an undirected graph.
  BfsResult bfs = BfsPush(graph, /*source=*/0, pool);
  std::printf("BFS from vertex 0 reached %zu vertices\n", bfs.reached);

  std::vector<double> rank = PageRank(graph, pool);
  VertexId top = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (rank[v] > rank[top]) {
      top = v;
    }
  }
  std::printf("highest PageRank: vertex %u (score %.6f, degree %zu)\n", top,
              rank[top], graph.degree(top));

  // 5. Deletions use the same batched path.
  size_t removed = graph.DeleteBatch(batch);
  std::printf("deleted the streamed batch again: %zu edges removed (overlap with the base graph included)\n",
              removed);
  return 0;
}
