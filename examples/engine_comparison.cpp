// Side-by-side engine comparison on one workload — a miniature of the
// paper's whole evaluation, and a template for benchmarking your own
// workload against all four engines through the common engine concept.
//
//   ./engine_comparison [scale] [avg_degree]
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "src/analytics/bfs.h"
#include "src/analytics/pagerank.h"
#include "src/baselines/ctree_graph.h"
#include "src/baselines/terrace_graph.h"
#include "src/core/lsgraph.h"
#include "src/gen/datasets.h"
#include "src/util/parse.h"
#include "src/util/timer.h"

namespace {

using namespace lsg;

struct Report {
  double build_s;
  double insert_s;
  double bfs_s;
  double pr_s;
  double mem_mb;
};

template <typename G>
Report Evaluate(G& graph, const std::vector<Edge>& base,
                const std::vector<Edge>& batch, ThreadPool& pool) {
  Report r;
  Timer timer;
  graph.BuildFromEdges(base);
  r.build_s = timer.Seconds();
  timer.Reset();
  graph.InsertBatch(batch);
  r.insert_s = timer.Seconds();
  (void)Bfs(graph, 0, pool);  // warm caches / lazy indexes
  timer.Reset();
  (void)Bfs(graph, 0, pool);
  r.bfs_s = timer.Seconds();
  timer.Reset();
  (void)PageRank(graph, pool);
  r.pr_s = timer.Seconds();
  r.mem_mb = graph.memory_footprint() / 1e6;
  return r;
}

void Print(const char* name, const Report& r) {
  std::printf("%-9s build %7.3fs  batch-insert %7.3fs  BFS %7.4fs  PR %7.3fs"
              "  mem %8.2f MB\n",
              name, r.build_s, r.insert_s, r.bfs_s, r.pr_s, r.mem_mb);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<int> scale_arg =
      argc > 1 ? ParseNumber<int>(argv[1]) : std::optional<int>(15);
  const std::optional<double> degree_arg =
      argc > 2 ? ParseDouble(argv[2]) : std::optional<double>(16.0);
  if (argc > 3 || !scale_arg || *scale_arg < 1 || *scale_arg > 30 ||
      !degree_arg || *degree_arg <= 0.0) {
    std::fprintf(stderr,
                 "usage: engine_comparison [scale in 1..30] [avg_degree > 0]\n");
    return 2;
  }
  const int scale = *scale_arg;
  const double avg_degree = *degree_arg;

  DatasetSpec spec{"demo", scale, avg_degree, 42};
  std::vector<Edge> base = BuildDatasetEdges(spec);
  std::vector<Edge> batch = BuildUpdateBatch(spec, base.size() / 4, 0);
  VertexId n = VertexId{1} << scale;
  std::printf("workload: %u vertices, %zu base edges, %zu-edge update batch\n",
              n, base.size(), batch.size());

  ThreadPool& pool = ThreadPool::Global();
  {
    LSGraph g(n);
    Print("LSGraph", Evaluate(g, base, batch, pool));
  }
  {
    TerraceGraph g(n);
    Print("Terrace", Evaluate(g, base, batch, pool));
  }
  {
    AspenGraph g(n);
    Print("Aspen", Evaluate(g, base, batch, pool));
  }
  {
    PacTreeGraph g(n);
    Print("PaC-tree", Evaluate(g, base, batch, pool));
  }
  return 0;
}
