// Maintained-query subsystem tests (DESIGN.md §15): randomized
// maintained-vs-recompute equivalence across insert+delete batches, thread
// counts, and leaf representations; handcrafted regressions for the
// deletion-first ordering, BFS's invalidation cascade and CC's spanning
// forest (non-tree deletes, replacement edges, splits); the dirty-set
// fallback; and the engine/service batch-boundary hooks (the engine's
// batch observer and ShardedGraph's drainer hook).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/analytics/bfs.h"
#include "src/analytics/cc.h"
#include "src/analytics/incremental/incremental_bfs.h"
#include "src/analytics/incremental/incremental_cc.h"
#include "src/analytics/incremental/maintained.h"
#include "src/core/lsgraph.h"
#include "src/parallel/thread_pool.h"
#include "src/service/sharded_graph.h"
#include "src/util/prng.h"

namespace lsg {
namespace {

// Both orientations of every pair: the symmetric discipline the maintained
// CC (and BFS deletion support) require.
std::vector<Edge> Symmetrize(const std::vector<Edge>& pairs) {
  std::vector<Edge> out;
  out.reserve(pairs.size() * 2);
  for (const Edge& e : pairs) {
    out.push_back(e);
    out.push_back(Edge{e.dst, e.src});
  }
  return out;
}

Edge RandomPair(SplitMix64& rng, VertexId n) {
  VertexId u = static_cast<VertexId>(rng.NextBounded(n));
  VertexId v = static_cast<VertexId>(rng.NextBounded(n));
  while (v == u) {
    v = static_cast<VertexId>(rng.NextBounded(n));
  }
  return Edge{u, v};
}

// Random pair whose endpoints share a block of `block` consecutive ids —
// keeps the graph split into many small components.
Edge RandomBlockPair(SplitMix64& rng, VertexId n, VertexId block) {
  VertexId base =
      static_cast<VertexId>(rng.NextBounded(n / block)) * block;
  VertexId u = base + static_cast<VertexId>(rng.NextBounded(block));
  VertexId v = base + static_cast<VertexId>(rng.NextBounded(block));
  while (v == u) {
    v = base + static_cast<VertexId>(rng.NextBounded(block));
  }
  return Edge{u, v};
}

// One randomized round: mutate the graph (inserts + deletes, symmetrized),
// hand the exact deltas to `apply`, then let `check` compare against the
// full kernel. `live` tracks insertable/deletable canonical pairs.
template <typename ApplyFn>
void MutateRound(LSGraph& graph, SplitMix64& rng, std::vector<Edge>* live,
                 size_t inserts, size_t deletes, bool block_local,
                 const ApplyFn& apply) {
  std::vector<Edge> ins_pairs;
  for (size_t i = 0; i < inserts; ++i) {
    ins_pairs.push_back(block_local
                            ? RandomBlockPair(rng, graph.num_vertices(), 32)
                            : RandomPair(rng, graph.num_vertices()));
  }
  std::vector<Edge> del_pairs;
  for (size_t i = 0; i < deletes && !live->empty(); ++i) {
    size_t at = rng.NextBounded(live->size());
    del_pairs.push_back((*live)[at]);
    (*live)[at] = live->back();
    live->pop_back();
  }
  std::vector<Edge> ins = Symmetrize(ins_pairs);
  std::vector<Edge> del = Symmetrize(del_pairs);
  // Deletions land first, like the engine's observer delivers them; the
  // spans may contain duplicates and edges the graph never held (the
  // query's documented tolerance).
  graph.DeleteBatch(del);
  graph.InsertBatch(ins);
  live->insert(live->end(), ins_pairs.begin(), ins_pairs.end());
  apply(ins, del);
}

void RunBfsEquivalence(size_t threads, bool compressed, uint64_t seed) {
  ThreadPool pool(threads);
  Options opt;
  opt.compress_leaves = compressed;
  constexpr VertexId kN = 1200;
  LSGraph graph(kN, opt, &pool);

  SplitMix64 rng(seed);
  std::vector<Edge> live;
  for (size_t i = 0; i < 3000; ++i) {
    live.push_back(RandomPair(rng, kN));
  }
  graph.BuildFromEdges(Symmetrize(live));

  IncrementalOptions iopt;
  iopt.fallback_fraction = 0.2;  // let moderate shakes stay incremental
  IncrementalBfs query(/*source=*/0, pool, iopt);
  query.Init(graph);
  ASSERT_EQ(query.Levels(), Bfs(graph, 0, pool).level);

  for (int round = 0; round < 10; ++round) {
    MutateRound(graph, rng, &live, /*inserts=*/40, /*deletes=*/25,
                /*block_local=*/false,
                [&](const std::vector<Edge>& ins, const std::vector<Edge>& del) {
                  query.Apply(graph, ins, del);
                });
    ASSERT_EQ(query.Levels(), Bfs(graph, 0, pool).level)
        << "round " << round << " threads " << threads << " compressed "
        << compressed;
  }
  EXPECT_GT(query.stats().incremental_runs, 0u);
}

void RunCcEquivalence(size_t threads, bool compressed, uint64_t seed) {
  ThreadPool pool(threads);
  Options opt;
  opt.compress_leaves = compressed;
  constexpr VertexId kN = 1600;
  LSGraph graph(kN, opt, &pool);

  SplitMix64 rng(seed);
  std::vector<Edge> live;
  for (size_t i = 0; i < 2000; ++i) {
    live.push_back(RandomBlockPair(rng, kN, 32));  // many small components
  }
  graph.BuildFromEdges(Symmetrize(live));

  // Many small components: splits and merges are frequent, and a cut
  // subtree never outgrows its <=32-vertex block.
  IncrementalOptions iopt;
  iopt.fallback_fraction = 0.5;
  IncrementalCC query(pool, iopt);
  query.Init(graph);
  ASSERT_EQ(query.Labels(), ConnectedComponents(graph, pool));

  for (int round = 0; round < 10; ++round) {
    MutateRound(graph, rng, &live, /*inserts=*/30, /*deletes=*/8,
                /*block_local=*/true,
                [&](const std::vector<Edge>& ins, const std::vector<Edge>& del) {
                  query.Apply(graph, ins, del);
                });
    ASSERT_EQ(query.Labels(), ConnectedComponents(graph, pool))
        << "round " << round << " threads " << threads << " compressed "
        << compressed;
  }
  EXPECT_GT(query.stats().incremental_runs, 0u);
}

TEST(IncrementalBfsTest, MatchesKernelAcrossRandomBatches) {
  uint64_t seed = 101;
  for (size_t threads : {1, 2, 8}) {
    for (bool compressed : {false, true}) {
      RunBfsEquivalence(threads, compressed, seed++);
    }
  }
}

TEST(IncrementalCCTest, MatchesKernelAcrossRandomBatches) {
  uint64_t seed = 201;
  for (size_t threads : {1, 2, 8}) {
    for (bool compressed : {false, true}) {
      RunCcEquivalence(threads, compressed, seed++);
    }
  }
}

// One giant component: random pairs over the whole universe, deletions
// drawn from every live edge (base edges included), so nearly every
// deleted edge sits inside the giant component. Labels must equal the
// kernel's after every round; at least `min_incremental` of the 60 rounds
// must stay on the delta path.
void RunCcGiantComponent(size_t threads, bool compressed, uint64_t seed,
                         double fallback_fraction, uint64_t min_incremental) {
  ThreadPool pool(threads);
  Options opt;
  opt.compress_leaves = compressed;
  constexpr VertexId kN = 2000;
  LSGraph graph(kN, opt, &pool);

  SplitMix64 rng(seed);
  std::vector<Edge> live;
  for (size_t i = 0; i < 8000; ++i) {
    live.push_back(RandomPair(rng, kN));
  }
  graph.BuildFromEdges(Symmetrize(live));

  IncrementalOptions iopt;
  iopt.fallback_fraction = fallback_fraction;
  IncrementalCC query(pool, iopt);
  query.Init(graph);
  ASSERT_EQ(query.Labels(), ConnectedComponents(graph, pool));

  for (int round = 0; round < 60; ++round) {
    MutateRound(graph, rng, &live, /*inserts=*/20, /*deletes=*/30,
                /*block_local=*/false,
                [&](const std::vector<Edge>& ins, const std::vector<Edge>& del) {
                  query.Apply(graph, ins, del);
                });
    ASSERT_EQ(query.Labels(), ConnectedComponents(graph, pool))
        << "round " << round << " threads " << threads << " compressed "
        << compressed << " cap " << fallback_fraction;
  }
  EXPECT_GE(query.stats().incremental_runs, min_incremental)
      << "threads " << threads << " compressed " << compressed << " cap "
      << fallback_fraction;
}

TEST(IncrementalCCTest, GiantComponentDeletionsStayIncremental) {
  uint64_t seed = 301;
  for (size_t threads : {1, 2, 8}) {
    for (bool compressed : {false, true}) {
      // Uncapped, every round runs the delta path.
      RunCcGiantComponent(threads, compressed, seed, 1.0, 60);
      // At the default cap a deletion cuts off only a small subtree, so
      // most rounds stay incremental.
      RunCcGiantComponent(threads, compressed, seed,
                          IncrementalOptions{}.fallback_fraction, 30);
      ++seed;
    }
  }
}

TEST(IncrementalBfsTest, DeletionCascadeRelinksThroughLongerPath) {
  // Path 0-1-2-3-4-5 plus chord 0-5. Deleting 2-3 invalidates {3, 4}?
  // No — 4 and 3 re-reach through 5: new levels 0,1,2,3,2,1.
  ThreadPool pool(2);
  LSGraph graph(6);
  std::vector<Edge> pairs = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}};
  graph.BuildFromEdges(Symmetrize(pairs));

  // At n = 6 the default 5% dirty cap truncates to 0; lift it so the test
  // exercises the cascade itself, not the fallback.
  IncrementalOptions iopt;
  iopt.fallback_fraction = 1.0;
  IncrementalBfs query(0, pool, iopt);
  query.Init(graph);
  ASSERT_EQ(query.Levels(), (std::vector<uint32_t>{0, 1, 2, 3, 2, 1}));

  std::vector<Edge> del = Symmetrize({{2, 3}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_EQ(query.Levels(), Bfs(graph, 0, pool).level);
  EXPECT_EQ(query.Levels(), (std::vector<uint32_t>{0, 1, 2, 3, 2, 1}));
  EXPECT_FALSE(query.stats().last_fallback);

  // Now cut the chord: 3, 4, 5 hang off the 0-1-2 stub again... except
  // 2-3 is gone, so they are unreachable. The cascade must shake all three.
  del = Symmetrize({{0, 5}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_EQ(query.Levels(), Bfs(graph, 0, pool).level);
  constexpr uint32_t kInf = IncrementalBfs::kUnreached;
  EXPECT_EQ(query.Levels(), (std::vector<uint32_t>{0, 1, 2, kInf, kInf, kInf}));
  EXPECT_FALSE(query.stats().last_fallback);
}

TEST(IncrementalBfsTest, MixedBatchProcessesDeletionDeltaFirst) {
  // Regression for the stale-seed bug: path 0-1-2, batch = {delete 0-1,
  // insert 2-3}. Seed selection must not read 2's pre-deletion level (2) —
  // the deletion disconnects {1, 2}, so 3 must stay unreached, not get
  // level 3 from a stale seed.
  ThreadPool pool(2);
  LSGraph graph(4);
  graph.BuildFromEdges(Symmetrize({{0, 1}, {1, 2}}));

  IncrementalOptions iopt;
  iopt.fallback_fraction = 1.0;  // force the delta path under test
  IncrementalBfs query(0, pool, iopt);
  query.Init(graph);
  ASSERT_EQ(query.Levels(), (std::vector<uint32_t>{0, 1, 2, IncrementalBfs::kUnreached}));

  std::vector<Edge> del = Symmetrize({{0, 1}});
  std::vector<Edge> ins = Symmetrize({{2, 3}});
  graph.DeleteBatch(del);
  graph.InsertBatch(ins);
  query.Apply(graph, ins, del);

  constexpr uint32_t kInf = IncrementalBfs::kUnreached;
  EXPECT_EQ(query.Levels(), (std::vector<uint32_t>{0, kInf, kInf, kInf}));
  EXPECT_EQ(query.Levels(), Bfs(graph, 0, pool).level);
  EXPECT_FALSE(query.stats().last_fallback);  // handled on the delta path
}

TEST(IncrementalBfsTest, LargeDirtySetFallsBackToFullKernel) {
  // A batch that shakes most of the graph must abandon the delta path: on
  // one long path, deleting an edge near the source invalidates the entire
  // tail — far past a 1% dirty cap — so the cascade aborts into the kernel.
  ThreadPool pool(2);
  constexpr VertexId kN = 400;
  LSGraph graph(kN);
  std::vector<Edge> pairs;
  for (VertexId v = 1; v < kN; ++v) {
    pairs.push_back(Edge{v - 1, v});  // one long path from the source
  }
  graph.BuildFromEdges(Symmetrize(pairs));

  IncrementalOptions iopt;
  iopt.fallback_fraction = 0.01;
  IncrementalBfs query(0, pool, iopt);
  query.Init(graph);

  std::vector<Edge> del = Symmetrize({{4, 5}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_TRUE(query.stats().last_fallback);
  EXPECT_GE(query.stats().fallbacks, 1u);
  EXPECT_EQ(query.Levels(), Bfs(graph, 0, pool).level);
  EXPECT_EQ(query.level(5), IncrementalBfs::kUnreached);
}

TEST(IncrementalBfsTest, CascadeFallbackDoesNotLeakQueueFlags) {
  // Regression: the cascade's dirty-cap abort used to clear queue_ without
  // resetting the in_queue_ flags of the unprocessed tail, so those
  // vertices could never be re-enqueued — a later support-severing delete
  // skipped their support check and left a stale finite level.
  ThreadPool pool(2);
  constexpr VertexId kN = 12;
  LSGraph graph(kN);
  std::vector<Edge> pairs;
  for (VertexId v = 1; v < kN; ++v) {
    pairs.push_back(Edge{v - 1, v});  // one path: level(v) == v
  }
  graph.BuildFromEdges(Symmetrize(pairs));

  IncrementalOptions iopt;
  iopt.fallback_fraction = 0.2;  // cap = 2 invalidations before fallback
  IncrementalBfs query(0, pool, iopt);
  query.Init(graph);

  // Two support deletes seed candidates {5, 8}; the cascade invalidates
  // 5, 8, 6 and aborts over the cap with vertex 9 still queued.
  std::vector<Edge> del = Symmetrize({{4, 5}, {7, 8}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  ASSERT_TRUE(query.stats().last_fallback);
  ASSERT_EQ(query.Levels(), Bfs(graph, 0, pool).level);

  // Restore the path incrementally (vertex 9 untouched by this batch).
  std::vector<Edge> ins = Symmetrize({{4, 5}, {7, 8}});
  graph.InsertBatch(ins);
  query.Apply(graph, ins, {});
  ASSERT_FALSE(query.stats().last_fallback);
  ASSERT_EQ(query.Levels(), Bfs(graph, 0, pool).level);

  // Sever vertex 9's only support. PushCandidate(9) must succeed — with a
  // leaked flag the support check is skipped and 9..11 keep stale levels.
  del = Symmetrize({{8, 9}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_EQ(query.Levels(), Bfs(graph, 0, pool).level);
  EXPECT_EQ(query.level(9), IncrementalBfs::kUnreached);
}

TEST(IncrementalBfsTest, AsymmetricModeFallsBackOnSupportDeletes) {
  // Directed mode: insertions maintain incrementally; deleting a support
  // edge cannot be repaired without in-neighbors, so it runs the kernel.
  ThreadPool pool(2);
  LSGraph graph(5);
  graph.BuildFromEdges({{0, 1}, {1, 2}, {0, 3}});

  IncrementalOptions iopt;
  iopt.symmetric = false;
  iopt.fallback_fraction = 1.0;  // n = 5: the default cap truncates to 0
  IncrementalBfs query(0, pool, iopt);
  query.Init(graph);

  std::vector<Edge> ins = {{3, 4}};
  graph.InsertBatch(ins);
  query.Apply(graph, ins, {});
  EXPECT_FALSE(query.stats().last_fallback);
  EXPECT_EQ(query.Levels(), BfsPush(graph, 0, pool).level);

  std::vector<Edge> del = {{1, 2}};
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_TRUE(query.stats().last_fallback);
  EXPECT_EQ(query.Levels(), BfsPush(graph, 0, pool).level);
}

TEST(IncrementalCCTest, SplitsAndRemergesComponents) {
  // Two chains bridged by one edge: deleting the bridge must split the
  // labels (propagation alone cannot discover a split — the cut walk
  // does), and re-inserting it must merge them back.
  ThreadPool pool(2);
  LSGraph graph(8);
  std::vector<Edge> pairs = {{0, 1}, {1, 2}, {2, 3},          // chain A
                             {4, 5}, {5, 6}, {6, 7},          // chain B
                             {3, 4}};                          // bridge
  graph.BuildFromEdges(Symmetrize(pairs));

  IncrementalOptions iopt;
  iopt.fallback_fraction = 1.0;  // n = 8: the default cap truncates to 0
  IncrementalCC query(pool, iopt);
  query.Init(graph);
  ASSERT_EQ(query.Labels(), std::vector<VertexId>(8, 0));

  std::vector<Edge> del = Symmetrize({{3, 4}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_EQ(query.Labels(),
            (std::vector<VertexId>{0, 0, 0, 0, 4, 4, 4, 4}));
  EXPECT_EQ(query.Labels(), ConnectedComponents(graph, pool));

  std::vector<Edge> ins = Symmetrize({{3, 4}});
  graph.InsertBatch(ins);
  query.Apply(graph, ins, {});
  EXPECT_EQ(query.Labels(), std::vector<VertexId>(8, 0));
  EXPECT_FALSE(query.stats().last_fallback);
}

// A 300-vertex star on 0 plus the chord (10, 20). The forest's first
// flood scans each leaf's adjacency from its smallest neighbor, 0, so
// every leaf hangs off the root and the chord is a non-tree edge.
void BuildStarWithChord(LSGraph* graph) {
  std::vector<Edge> pairs;
  for (VertexId v = 1; v < graph->num_vertices(); ++v) {
    pairs.push_back(Edge{0, v});
  }
  pairs.push_back(Edge{10, 20});
  graph->BuildFromEdges(Symmetrize(pairs));
}

TEST(IncrementalCCTest, NonTreeDeletionStaysIncremental) {
  ThreadPool pool(2);
  LSGraph graph(300);
  BuildStarWithChord(&graph);
  IncrementalCC query(pool);  // default cap: 15 of 300 vertices
  query.Init(graph);

  std::vector<Edge> del = Symmetrize({{10, 20}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_FALSE(query.stats().last_fallback);
  EXPECT_EQ(query.stats().last_dirty, 0u);
  EXPECT_EQ(query.Labels(), ConnectedComponents(graph, pool));
}

TEST(IncrementalCCTest, TreeEdgeDeletionReattachesThroughReplacement) {
  // Deleting (0, 10) cuts off leaf 10 alone; its chord to 20, whose path
  // to the root is intact, is the replacement edge.
  ThreadPool pool(2);
  LSGraph graph(300);
  BuildStarWithChord(&graph);
  IncrementalCC query(pool);
  query.Init(graph);

  std::vector<Edge> del = Symmetrize({{0, 10}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_FALSE(query.stats().last_fallback);
  EXPECT_EQ(query.stats().last_dirty, 1u);
  EXPECT_EQ(query.label(10), 0u);
  EXPECT_EQ(query.Labels(), ConnectedComponents(graph, pool));
}

TEST(IncrementalCCTest, SplitRelabelsOnlyTheSeveredSide) {
  // Path 0-3-1-2: deleting (0, 3) severs {3, 1, 2}, whose own minimum is
  // 1, not the cut root 3; the root side keeps label 0.
  ThreadPool pool(2);
  LSGraph graph(4);
  graph.BuildFromEdges(Symmetrize({{0, 3}, {3, 1}, {1, 2}}));

  IncrementalOptions iopt;
  iopt.fallback_fraction = 1.0;  // n = 4: the default cap truncates to 0
  IncrementalCC query(pool, iopt);
  query.Init(graph);
  ASSERT_EQ(query.Labels(), std::vector<VertexId>(4, 0));

  std::vector<Edge> del = Symmetrize({{0, 3}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_FALSE(query.stats().last_fallback);
  EXPECT_EQ(query.Labels(), (std::vector<VertexId>{0, 1, 1, 1}));
  EXPECT_EQ(query.Labels(), ConnectedComponents(graph, pool));
}

TEST(IncrementalCCTest, MixedBatchCutsAndReconnects) {
  // One batch deletes the bridge between two chains and inserts another
  // edge between them: the cut side re-attaches through the new edge.
  ThreadPool pool(2);
  LSGraph graph(8);
  graph.BuildFromEdges(Symmetrize({{0, 1}, {1, 2}, {2, 3},   // chain A
                                   {4, 5}, {5, 6}, {6, 7},   // chain B
                                   {3, 4}}));                // bridge

  IncrementalOptions iopt;
  iopt.fallback_fraction = 1.0;
  IncrementalCC query(pool, iopt);
  query.Init(graph);

  std::vector<Edge> del = Symmetrize({{3, 4}});
  std::vector<Edge> ins = Symmetrize({{0, 7}});
  graph.DeleteBatch(del);
  graph.InsertBatch(ins);
  query.Apply(graph, ins, del);
  EXPECT_FALSE(query.stats().last_fallback);
  EXPECT_EQ(query.Labels(), std::vector<VertexId>(8, 0));
  EXPECT_EQ(query.Labels(), ConnectedComponents(graph, pool));
}

TEST(IncrementalCCTest, SeveredSubtreeOverCapFallsBack) {
  // On the path 0-1-...-299 the forest is the path itself, so deleting
  // (4, 5) cuts off the 295 vertices beyond it: past a 5% cap, the walk
  // stops and the forest is rebuilt.
  ThreadPool pool(2);
  constexpr VertexId kN = 300;
  LSGraph graph(kN);
  std::vector<Edge> pairs;
  for (VertexId v = 1; v < kN; ++v) {
    pairs.push_back(Edge{v - 1, v});
  }
  graph.BuildFromEdges(Symmetrize(pairs));

  IncrementalOptions iopt;
  iopt.fallback_fraction = 0.05;
  IncrementalCC query(pool, iopt);
  query.Init(graph);

  std::vector<Edge> del = Symmetrize({{4, 5}});
  graph.DeleteBatch(del);
  query.Apply(graph, {}, del);
  EXPECT_TRUE(query.stats().last_fallback);
  EXPECT_EQ(query.label(kN - 1), 5u);
  EXPECT_EQ(query.Labels(), ConnectedComponents(graph, pool));
}

TEST(IncrementalCCTest, RejectsAsymmetricOptions) {
  // Weak connectivity reads every edge both ways; a graph that stores one
  // orientation would be read wrong, so the query refuses it up front.
  ThreadPool pool(1);
  IncrementalOptions iopt;
  iopt.symmetric = false;
  EXPECT_THROW({ IncrementalCC query(pool, iopt); }, std::invalid_argument);
}

TEST(MaintainedQueryTest, SyncMaintainsAcrossEngineBatchBoundaries) {
  // The engine's observer applies the delta inline on the mutating
  // thread, so results are fresh the moment the mutation returns — across
  // batch inserts, batch deletes, single-edge ops, and a full rebuild.
  ThreadPool pool(2);
  LSGraph graph(64);
  graph.BuildFromEdges({{0, 1}, {1, 2}, {2, 3}});

  IncrementalOptions iopt;
  iopt.symmetric = false;  // directed stream, single-edge ops included
  MaintainedQuery<IncrementalBfs> maintained(graph,
                                             IncrementalBfs(0, pool, iopt));
  EXPECT_EQ(maintained.query().Levels(), BfsPush(graph, 0, pool).level);

  std::vector<Edge> ins = {{3, 4}, {4, 5}, {0, 9}};
  graph.InsertBatch(ins);
  EXPECT_EQ(maintained.query().Levels(), BfsPush(graph, 0, pool).level);

  graph.InsertEdge(9, 10);
  EXPECT_EQ(maintained.query().Levels(), BfsPush(graph, 0, pool).level);

  graph.DeleteEdge(1, 2);  // support delete: asymmetric-mode fallback
  EXPECT_EQ(maintained.query().Levels(), BfsPush(graph, 0, pool).level);

  std::vector<Edge> del = {{0, 9}, {9, 10}};
  graph.DeleteBatch(del);
  EXPECT_EQ(maintained.query().Levels(), BfsPush(graph, 0, pool).level);

  // BuildFromEdges replaces the graph wholesale: OnGraphReplaced re-inits.
  graph.BuildFromEdges({{0, 5}, {5, 6}});
  EXPECT_EQ(maintained.query().Levels(), BfsPush(graph, 0, pool).level);
  EXPECT_EQ(maintained.query().level(6), 2u);
}

TEST(ShardedGraphTest, BatchHookMaintainsPerShardQueries) {
  // The service-layer hook: one IncrementalBfs per shard, fed from each
  // shard's drainer with the shard's slice and the freshly pinned
  // post-batch view. SubmitAndWait returning implies the hook already ran,
  // so the comparison needs no extra synchronization beyond Flush().
  constexpr uint32_t kShards = 2;
  constexpr VertexId kN = 512;
  ServiceOptions sopt;
  sopt.num_shards = kShards;
  ShardedGraph service(kN, /*shard_map=*/nullptr, sopt);

  ThreadPool pool(2);
  IncrementalOptions iopt;
  iopt.symmetric = false;  // a shard holds only its sources' out-edges
  std::vector<std::unique_ptr<IncrementalBfs>> per_shard;
  for (uint32_t s = 0; s < kShards; ++s) {
    per_shard.push_back(std::make_unique<IncrementalBfs>(0, pool, iopt));
  }
  std::atomic<uint64_t> hook_calls{0};
  // The contract only requires cross-shard thread safety of the hook; this
  // one serializes because both shards' queries share `pool`.
  std::mutex hook_mu;
  service.SetBatchHook(
      [&](uint32_t shard, ShardedGraph::UpdateKind kind,
          std::span<const Edge> edges,
          const std::shared_ptr<const GraphSnapshot>& view) {
        std::lock_guard<std::mutex> lock(hook_mu);
        hook_calls.fetch_add(1, std::memory_order_relaxed);
        std::span<const Edge> none;
        bool is_delete = kind == ShardedGraph::UpdateKind::kDelete;
        per_shard[shard]->Apply(*view, is_delete ? none : edges,
                                is_delete ? edges : none);
      });

  SplitMix64 rng(909);
  std::vector<Edge> live;
  for (int round = 0; round < 5; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 64; ++i) {
      Edge e = RandomPair(rng, kN);
      batch.push_back(e);
      live.push_back(e);
    }
    ASSERT_EQ(service.SubmitAndWait(ShardedGraph::UpdateKind::kInsert,
                                    std::move(batch)),
              SubmitStatus::kOk);
    if (!live.empty()) {
      std::vector<Edge> del = {live.back()};
      live.pop_back();
      ASSERT_EQ(service.SubmitAndWait(ShardedGraph::UpdateKind::kDelete,
                                      std::move(del)),
                SubmitStatus::kOk);
    }
  }
  service.Flush();
  EXPECT_GT(hook_calls.load(), 0u);

  for (uint32_t s = 0; s < kShards; ++s) {
    std::shared_ptr<const GraphSnapshot> view = service.ReadView(s);
    EXPECT_EQ(per_shard[s]->Levels(), BfsPush(*view, 0, pool).level)
        << "shard " << s;
  }
  service.SetBatchHook(nullptr);  // quiesced: Flush() ran, no submits follow
}

TEST(MaintainedQueryTest, SourceRetargetRecomputesOnNextApply) {
  ThreadPool pool(2);
  LSGraph graph(8);
  graph.BuildFromEdges(Symmetrize({{0, 1}, {1, 2}, {4, 5}}));

  IncrementalBfs query(0, pool);
  query.Init(graph);
  EXPECT_EQ(query.level(5), IncrementalBfs::kUnreached);

  query.ResetSource(4);
  query.Apply(graph, {}, {});
  EXPECT_EQ(query.Levels(), Bfs(graph, 4, pool).level);
  EXPECT_EQ(query.level(5), 1u);
}

}  // namespace
}  // namespace lsg
