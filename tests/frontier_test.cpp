// Hybrid frontier runtime tests: sparse/dense/kAll representation
// round-trips, the parallel cached edge sum, and push-vs-auto-vs-pull
// equivalence of the frontier kernels on every engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "src/analytics/bfs.h"
#include "src/analytics/cc.h"
#include "src/baselines/ctree_graph.h"
#include "src/baselines/terrace_graph.h"
#include "src/core/edgemap.h"
#include "src/core/lsgraph.h"
#include "src/gen/datasets.h"

namespace lsg {
namespace {

std::vector<VertexId> SortedVertices(const VertexSubset& s, ThreadPool& pool) {
  std::vector<VertexId> ids = s.vertices(&pool);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FrontierTest, SparseToDenseToSparseRoundTripsExactly) {
  std::mt19937_64 rng(7);
  ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    VertexId universe = 1 + static_cast<VertexId>(rng() % 5000);
    std::set<VertexId> want;
    size_t target = rng() % (universe + 1);
    while (want.size() < target) {
      want.insert(static_cast<VertexId>(rng() % universe));
    }
    std::vector<VertexId> ids(want.begin(), want.end());
    std::shuffle(ids.begin(), ids.end(), rng);

    VertexSubset sparse = VertexSubset::FromVertices(universe, ids);
    ASSERT_EQ(sparse.size(), want.size());

    // Sparse -> dense: every member set, every non-member clear.
    const AtomicBitset& bits = sparse.bits(&pool);
    for (VertexId v = 0; v < universe; ++v) {
      ASSERT_EQ(bits.Get(v), want.count(v) != 0) << "vertex " << v;
    }

    // Dense -> sparse on a bitmap-born subset: identical membership.
    AtomicBitset raw(universe);
    for (VertexId v : want) {
      raw.Set(v);
    }
    VertexSubset dense =
        VertexSubset::FromBitset(universe, std::move(raw), want.size());
    ASSERT_EQ(dense.size(), want.size());
    EXPECT_FALSE(dense.sparse_materialized());
    std::vector<VertexId> got = SortedVertices(dense, pool);
    EXPECT_EQ(got, std::vector<VertexId>(want.begin(), want.end()));
  }
}

TEST(FrontierTest, AllNeverMaterializesInsideTheRuntime) {
  constexpr VertexId kN = 1 << 15;
  VertexSubset all = VertexSubset::All(kN);
  EXPECT_TRUE(all.is_all());
  EXPECT_EQ(all.size(), static_cast<size_t>(kN));
  EXPECT_FALSE(all.empty());

  ThreadPool pool(4);
  LSGraph g(kN);
  g.InsertEdge(1, 2);
  g.InsertEdge(2, 1);

  // EdgeSum answers from num_edges(); ForEach iterates the implicit range.
  EXPECT_EQ(all.EdgeSum(g, pool), g.num_edges());
  std::atomic<uint64_t> sum{0};
  std::atomic<size_t> count{0};
  all.ForEach(pool, [&](VertexId v, size_t /*tid*/) {
    sum.fetch_add(v, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), static_cast<size_t>(kN));
  EXPECT_EQ(sum.load(), uint64_t{kN} * (kN - 1) / 2);

  // Neither representation was ever built.
  EXPECT_FALSE(all.sparse_materialized());
  EXPECT_FALSE(all.dense_materialized());
}

TEST(FrontierTest, EdgeSumMatchesSerialDegreeSumAndIsCached) {
  DatasetSpec spec{"FS", 9, 6.0, 11};
  std::vector<Edge> edges = BuildDatasetEdges(spec);
  constexpr VertexId kN = 512;
  LSGraph g(kN);
  g.BuildFromEdges(edges);
  ThreadPool pool(8);

  std::mt19937_64 rng(13);
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < kN; ++v) {
    if (rng() % 3 == 0) {
      ids.push_back(v);
    }
  }
  uint64_t expected = 0;
  for (VertexId v : ids) {
    expected += g.degree(v);
  }
  VertexSubset frontier = VertexSubset::FromVertices(kN, std::move(ids));
  EXPECT_EQ(frontier.EdgeSum(g, pool), expected);
  EXPECT_EQ(frontier.EdgeSum(g, pool), expected);  // cached path
}

TEST(FrontierTest, ForEachVisitsDenseRepWithoutSparseList) {
  constexpr VertexId kN = 4096;
  AtomicBitset raw(kN);
  std::set<VertexId> want;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 600; ++i) {
    VertexId v = static_cast<VertexId>(rng() % kN);
    if (want.insert(v).second) {
      raw.Set(v);
    }
  }
  VertexSubset dense =
      VertexSubset::FromBitset(kN, std::move(raw), want.size());
  ThreadPool pool(8);
  std::vector<std::atomic<uint32_t>> seen(kN);
  dense.ForEach(pool, [&seen](VertexId v, size_t /*tid*/) {
    seen[v].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_FALSE(dense.sparse_materialized());
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(seen[v].load(), want.count(v) != 0 ? 1u : 0u) << "vertex " << v;
  }
}

TEST(FrontierTest, ForEachSpreadsWorkAcrossThePool) {
  // The frontier-prep satellite: degree summation and frontier iteration run
  // O(|frontier|/P), not serially on the calling thread. Chunk scheduling is
  // dynamic and the calling thread can race ahead of waking workers, so the
  // first chunk briefly parks until a second thread has claimed work (bounded
  // wait — a serial ForEach regression fails after the timeout, a parallel
  // one passes in microseconds).
  constexpr VertexId kN = 1 << 16;
  ThreadPool pool(8);
  VertexSubset all = VertexSubset::All(kN);
  std::atomic<uint64_t> tid_mask{0};
  std::atomic<bool> parked{false};
  all.ForEach(pool, [&tid_mask, &parked](VertexId /*v*/, size_t tid) {
    uint64_t mask = tid_mask.fetch_or(uint64_t{1} << tid,
                                      std::memory_order_relaxed) |
                    (uint64_t{1} << tid);
    if (std::popcount(mask) < 2 && !parked.exchange(true)) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (std::popcount(tid_mask.load(std::memory_order_relaxed)) < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  });
  EXPECT_GE(std::popcount(tid_mask.load()), 2);
}

// ---- Push vs auto vs forced-pull equivalence, per engine and thread count.

template <typename E>
std::unique_ptr<E> MakeEngine(VertexId n);

template <>
std::unique_ptr<LSGraph> MakeEngine<LSGraph>(VertexId n) {
  return std::make_unique<LSGraph>(n);
}
template <>
std::unique_ptr<TerraceGraph> MakeEngine<TerraceGraph>(VertexId n) {
  return std::make_unique<TerraceGraph>(n);
}
template <>
std::unique_ptr<AspenGraph> MakeEngine<AspenGraph>(VertexId n) {
  return std::make_unique<AspenGraph>(n);
}

template <typename E>
class FrontierEquivalenceTest : public ::testing::Test {};

using EngineTypes = ::testing::Types<LSGraph, TerraceGraph, AspenGraph>;
TYPED_TEST_SUITE(FrontierEquivalenceTest, EngineTypes);

TYPED_TEST(FrontierEquivalenceTest, AutoAndPullBfsMatchPushAcrossThreads) {
  DatasetSpec spec{"FE", 10, 7.0, 42};
  std::vector<Edge> edges = BuildDatasetEdges(spec);  // symmetrized
  constexpr VertexId kN = 1024;
  auto g = MakeEngine<TypeParam>(kN);
  g->BuildFromEdges(edges);
  VertexId source = edges.front().src;

  EdgeMapOptions pull_options;
  pull_options.direction = Direction::kPull;
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    BfsResult push = BfsPush(*g, source, pool);
    BfsResult aut = Bfs(*g, source, pool);
    BfsResult pull = Bfs(*g, source, pool, pull_options);
    EXPECT_EQ(aut.level, push.level) << "threads=" << threads;
    EXPECT_EQ(aut.reached, push.reached) << "threads=" << threads;
    EXPECT_EQ(pull.level, push.level) << "threads=" << threads;
    EXPECT_EQ(pull.reached, push.reached) << "threads=" << threads;
  }
}

TYPED_TEST(FrontierEquivalenceTest, AutoAndPullCcMatchPushAcrossThreads) {
  DatasetSpec spec{"FC", 10, 5.0, 77};
  std::vector<Edge> edges = BuildDatasetEdges(spec);  // symmetrized
  constexpr VertexId kN = 1024;
  auto g = MakeEngine<TypeParam>(kN);
  g->BuildFromEdges(edges);

  EdgeMapOptions push_options;
  push_options.direction = Direction::kPush;
  EdgeMapOptions pull_options;
  pull_options.direction = Direction::kPull;
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    // The fixpoint label is the component minimum, so all modes agree
    // exactly, not just up to relabeling.
    std::vector<VertexId> push = ConnectedComponents(*g, pool, push_options);
    std::vector<VertexId> aut = ConnectedComponents(*g, pool);
    std::vector<VertexId> pull = ConnectedComponents(*g, pool, pull_options);
    EXPECT_EQ(aut, push) << "threads=" << threads;
    EXPECT_EQ(pull, push) << "threads=" << threads;
  }
}

TEST(FrontierStatsTest, PullScanEarlyExitsOnDenseBfsLevels) {
  DatasetSpec spec{"FP", 11, 8.0, 5};
  std::vector<Edge> edges = BuildDatasetEdges(spec);  // symmetrized
  constexpr VertexId kN = 2048;
  LSGraph g(kN);
  g.BuildFromEdges(edges);
  ThreadPool pool(4);

  CoreStats stats;
  EdgeMapOptions options;
  options.direction = Direction::kPull;
  options.stats = &stats;
  (void)Bfs(g, edges.front().src, pool, options);

  uint64_t decoded = stats.pull_neighbors_decoded.load();
  uint64_t degree = stats.pull_degree_scanned.load();
  EXPECT_GT(stats.edgemap_pull_rounds.load(), 0u);
  EXPECT_EQ(stats.edgemap_push_rounds.load(), 0u);
  ASSERT_GT(degree, 0u);
  ASSERT_GT(decoded, 0u);
  // The point of the early exit: a claimed vertex stops decoding its
  // adjacency, so strictly less than the full degree is touched.
  EXPECT_LT(decoded, degree);
  EXPECT_GT(stats.pull_early_exits.load(), 0u);

  // Auto BFS on the same graph mixes directions and counts rounds.
  stats.Clear();
  options.direction = Direction::kAuto;
  (void)Bfs(g, edges.front().src, pool, options);
  EXPECT_GT(stats.edgemap_pull_rounds.load() + stats.edgemap_push_rounds.load(),
            0u);
}

TEST(FrontierStatsTest, PushOnlyBfsRecordsNoPullRounds) {
  DatasetSpec spec{"FQ", 8, 4.0, 6};
  std::vector<Edge> edges = BuildDatasetEdges(spec);
  constexpr VertexId kN = 256;
  LSGraph g(kN);
  g.BuildFromEdges(edges);
  ThreadPool pool(2);

  CoreStats stats;
  EdgeMapOptions options;
  options.direction = Direction::kPush;
  options.stats = &stats;
  (void)Bfs(g, edges.front().src, pool, options);
  EXPECT_GT(stats.edgemap_push_rounds.load(), 0u);
  EXPECT_EQ(stats.edgemap_pull_rounds.load(), 0u);
  EXPECT_EQ(stats.pull_neighbors_decoded.load(), 0u);
}

}  // namespace
}  // namespace lsg
