#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "src/analytics/bc.h"
#include "src/analytics/bfs.h"
#include "src/analytics/cc.h"
#include "src/analytics/pagerank.h"
#include "src/analytics/tc.h"
#include "src/baselines/ctree_graph.h"
#include "src/baselines/terrace_graph.h"
#include "src/core/lsgraph.h"
#include "src/gen/datasets.h"
#include "src/gen/rmat.h"
#include "tests/reference.h"

namespace lsg {
namespace {

// Small symmetric test graph shared by all kernel tests.
struct Fixture {
  static constexpr VertexId kN = 512;

  Fixture() : ref(kN), pool(4) {
    DatasetSpec spec{"T", 9, 6.0, 2024};
    edges = BuildDatasetEdges(spec, /*symmetrize=*/true);
    for (const Edge& e : edges) {
      ref.Insert(e.src, e.dst);
    }
  }

  std::vector<Edge> edges;
  RefGraph ref;
  ThreadPool pool;
};

Fixture& SharedFixture() {
  static Fixture fixture;
  return fixture;
}

template <typename E>
std::unique_ptr<E> BuildEngine() {
  auto g = std::make_unique<E>(Fixture::kN);
  g->BuildFromEdges(SharedFixture().edges);
  return g;
}

template <typename E>
class AnalyticsTest : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<LSGraph, TerraceGraph, AspenGraph, PacTreeGraph>;
TYPED_TEST_SUITE(AnalyticsTest, EngineTypes);

TYPED_TEST(AnalyticsTest, BfsLevelsMatchReference) {
  Fixture& fx = SharedFixture();
  auto g = BuildEngine<TypeParam>();
  VertexId source = fx.edges.front().src;
  BfsResult result = Bfs(*g, source, fx.pool);
  std::vector<uint32_t> expected = RefBfsLevels(fx.ref, source);
  ASSERT_EQ(result.level.size(), expected.size());
  size_t reached = 0;
  for (VertexId v = 0; v < Fixture::kN; ++v) {
    ASSERT_EQ(result.level[v], expected[v]) << "vertex " << v;
    reached += expected[v] != ~uint32_t{0};
  }
  EXPECT_EQ(result.reached, reached);
  // Parent edges must exist and step one level down.
  for (VertexId v = 0; v < Fixture::kN; ++v) {
    if (result.parent[v] != kInvalidVertex && v != source) {
      EXPECT_TRUE(fx.ref.Has(result.parent[v], v));
      EXPECT_EQ(result.level[result.parent[v]] + 1, result.level[v]);
    }
  }
}

TYPED_TEST(AnalyticsTest, PageRankMatchesReference) {
  Fixture& fx = SharedFixture();
  auto g = BuildEngine<TypeParam>();
  PageRankOptions pr_options;
  std::vector<double> got = PageRank(*g, fx.pool, pr_options);
  std::vector<double> expected =
      RefPageRank(fx.ref, pr_options.damping, pr_options.iterations);
  double total = 0.0;
  for (VertexId v = 0; v < Fixture::kN; ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-9) << "vertex " << v;
    total += got[v];
  }
  EXPECT_LE(total, 1.0 + 1e-6);
}

TYPED_TEST(AnalyticsTest, ConnectedComponentsPartitionMatches) {
  Fixture& fx = SharedFixture();
  auto g = BuildEngine<TypeParam>();
  std::vector<VertexId> got = ConnectedComponents(*g, fx.pool);
  std::vector<VertexId> expected = RefComponents(fx.ref);
  // Labels may differ; the partition must not. Same-component vertices must
  // share labels in both, cross-component must differ in both.
  for (VertexId v = 0; v < Fixture::kN; ++v) {
    for (VertexId u : fx.ref.Neighbors(v)) {
      ASSERT_EQ(got[v], got[u]);
    }
  }
  std::map<VertexId, VertexId> mapping;
  for (VertexId v = 0; v < Fixture::kN; ++v) {
    auto [it, fresh] = mapping.emplace(got[v], expected[v]);
    ASSERT_EQ(it->second, expected[v]) << "vertex " << v;
    (void)fresh;
  }
}

TYPED_TEST(AnalyticsTest, TriangleCountMatchesReference) {
  Fixture& fx = SharedFixture();
  auto g = BuildEngine<TypeParam>();
  TriangleCountResult result = TriangleCount(*g, fx.pool);
  EXPECT_EQ(result.triangles, RefTriangles(fx.ref));
  EXPECT_GE(result.traversal_seconds, 0.0);
}

TYPED_TEST(AnalyticsTest, BetweennessMatchesReference) {
  Fixture& fx = SharedFixture();
  auto g = BuildEngine<TypeParam>();
  VertexId source = fx.edges.front().src;
  std::vector<double> got = BetweennessCentrality(*g, source, fx.pool);
  std::vector<double> expected = RefBetweenness(fx.ref, source);
  for (VertexId v = 0; v < Fixture::kN; ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-6) << "vertex " << v;
  }
}

TEST(AnalyticsEdgeCases, BfsFromIsolatedVertex) {
  ThreadPool pool(2);
  LSGraph g(10);
  g.InsertEdge(1, 2);
  BfsResult result = Bfs(g, 0, pool);
  EXPECT_EQ(result.reached, 1u);
  EXPECT_EQ(result.level[0], 0u);
  EXPECT_EQ(result.level[1], ~uint32_t{0});
}

TEST(AnalyticsEdgeCases, PageRankOnEmptyGraphIsUniform) {
  ThreadPool pool(2);
  LSGraph g(4);
  std::vector<double> rank = PageRank(g, pool, {.damping = 0.85, .iterations = 5});
  for (double r : rank) {
    EXPECT_NEAR(r, (1.0 - 0.85) / 4, 1e-12);
  }
}

TEST(AnalyticsEdgeCases, CcOnEdgelessGraphGivesSingletons) {
  ThreadPool pool(2);
  LSGraph g(6);
  std::vector<VertexId> labels = ConnectedComponents(g, pool);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(labels[v], v);
  }
}

TEST(AnalyticsEdgeCases, TriangleOfThree) {
  ThreadPool pool(2);
  LSGraph g(3);
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}}) {
    g.InsertEdge(a, b);
    g.InsertEdge(b, a);
  }
  EXPECT_EQ(TriangleCount(g, pool).triangles, 1u);
}

TEST(AnalyticsEdgeCases, BcOnPathGraph) {
  // 0-1-2: vertex 1 lies on the single shortest path between 0 and 2.
  ThreadPool pool(2);
  LSGraph g(3);
  for (auto [a, b] : {std::pair{0, 1}, {1, 0}, {1, 2}, {2, 1}}) {
    g.InsertEdge(a, b);
  }
  std::vector<double> bc = BetweennessCentrality(g, 0, pool);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[2], 0.0);
}

TEST(DirectionOptimizedBfsTest, AutoDirectionLevelsMatchPushOnlyBfs) {
  DatasetSpec spec{"DO", 10, 7.0, 5};
  std::vector<Edge> edges = BuildDatasetEdges(spec);
  LSGraph g(1024);
  g.BuildFromEdges(edges);
  ThreadPool pool(4);
  VertexId source = edges.front().src;
  BfsResult push = BfsPush(g, source, pool);
  BfsResult diropt = Bfs(g, source, pool);  // default options: kAuto
  EXPECT_EQ(push.level, diropt.level);
  EXPECT_EQ(push.reached, diropt.reached);
  // Parents may differ but must be valid: one level up and a real edge.
  for (VertexId v = 0; v < 1024; ++v) {
    if (diropt.parent[v] == kInvalidVertex || v == source) {
      continue;
    }
    EXPECT_TRUE(g.HasEdge(diropt.parent[v], v)) << v;
    EXPECT_EQ(diropt.level[diropt.parent[v]] + 1, diropt.level[v]) << v;
  }
}

TEST(DirectionOptimizedBfsTest, ForcedDenseModeStillCorrect) {
  DatasetSpec spec{"DN", 8, 6.0, 6};
  std::vector<Edge> edges = BuildDatasetEdges(spec);
  LSGraph g(256);
  g.BuildFromEdges(edges);
  ThreadPool pool(2);
  VertexId source = edges.front().src;
  // Threshold 0 forces every round through the pull path.
  EdgeMapOptions dense_options;
  dense_options.dense_threshold = 0.0;
  BfsResult dense = Bfs(g, source, pool, dense_options);
  BfsResult push = BfsPush(g, source, pool);
  EXPECT_EQ(dense.level, push.level);
}

TEST(DirectionOptimizedBfsTest, ExplicitPullDirectionStillCorrect) {
  DatasetSpec spec{"DP", 8, 6.0, 7};
  std::vector<Edge> edges = BuildDatasetEdges(spec);
  LSGraph g(256);
  g.BuildFromEdges(edges);
  ThreadPool pool(2);
  VertexId source = edges.front().src;
  EdgeMapOptions pull_options;
  pull_options.direction = Direction::kPull;
  BfsResult pull = Bfs(g, source, pool, pull_options);
  BfsResult push = BfsPush(g, source, pool);
  EXPECT_EQ(pull.level, push.level);
  EXPECT_EQ(pull.reached, push.reached);
}

TEST(DirectionOptimizedBfsTest, IsolatedSourceTerminates) {
  LSGraph g(8);
  g.InsertEdge(1, 2);
  ThreadPool pool(2);
  BfsResult r = Bfs(g, 0, pool);
  EXPECT_EQ(r.reached, 1u);
}

}  // namespace
}  // namespace lsg
