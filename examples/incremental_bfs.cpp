// Incremental reachability monitoring: keep BFS levels from a source fresh
// while edges stream in. Demonstrates the incremental-computation pattern
// the paper cites as the reason AL-style random vertex access matters
// (§3.1): after each batch only the affected region is recomputed.
//
// Thin driver over the maintained-query subsystem (DESIGN.md §15): a
// MaintainedQuery<IncrementalBfs> subscribes to the engine's batch
// boundaries, so each InsertBatch below triggers delta-frontier
// maintenance automatically — with persistent per-vertex state, not the
// O(n) allocate-and-copy per round the pre-subsystem version of this
// example paid.
//
//   ./incremental_bfs [scale]
#include <cstdio>
#include <vector>

#include "src/analytics/bfs.h"
#include "src/analytics/incremental/incremental_bfs.h"
#include "src/analytics/incremental/maintained.h"
#include "src/core/lsgraph.h"
#include "src/gen/rmat.h"
#include "src/util/parse.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  using namespace lsg;
  int scale = argc > 1 ? ParseFlagValue<int>("scale", argv[1]) : 16;
  RmatGenerator gen({scale, 0.5, 0.1, 0.1}, 5);
  VertexId n = gen.num_vertices();
  uint64_t base_edges = n * 8ull;

  LSGraph graph(n);
  graph.BuildFromEdges(gen.Generate(0, base_edges));
  ThreadPool& pool = ThreadPool::Global();

  constexpr VertexId kSource = 0;
  // The rMat stream is not symmetrized: push-only insertions-only mode.
  IncrementalOptions opts;
  opts.symmetric = false;
  MaintainedQuery<IncrementalBfs> maintained(
      graph, IncrementalBfs(kSource, pool, opts));
  {
    size_t reached = 0;
    for (uint32_t lv : maintained.query().Levels()) {
      reached += lv != IncrementalBfs::kUnreached;
    }
    std::printf("initial BFS: reached %zu of %u vertices\n", reached, n);
  }

  uint64_t cursor = base_edges;
  for (int round = 0; round < 8; ++round) {
    std::vector<Edge> batch = gen.Generate(cursor, 20000);
    cursor += batch.size();

    uint64_t touched_before = maintained.query().stats().vertices_touched;
    Timer timer;
    graph.InsertBatch(batch);  // maintenance runs inline before return
    double inc_ms = timer.Millis();
    size_t touched = maintained.query().stats().vertices_touched -
                     touched_before;

    timer.Reset();
    BfsResult fresh = BfsPush(graph, kSource, pool);
    double full_ms = timer.Millis();

    bool agree = fresh.level == maintained.query().Levels();
    std::printf(
        "round %d: incremental touched %6zu vertices in %7.2f ms; full BFS "
        "%7.2f ms; results %s\n",
        round, touched, inc_ms, full_ms, agree ? "agree" : "DISAGREE");
    if (!agree) {
      return 1;
    }
  }
  return 0;
}
