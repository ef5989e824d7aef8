// Tests for the extension kernels (k-core, MIS) against serial references,
// across engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/analytics/kcore.h"
#include "src/analytics/mis.h"
#include "src/baselines/ctree_graph.h"
#include "src/core/lsgraph.h"
#include "src/gen/datasets.h"
#include "tests/reference.h"

namespace lsg {
namespace {

// Serial reference k-core: repeated minimum-degree peeling.
std::vector<uint32_t> RefKCore(const RefGraph& g) {
  VertexId n = g.num_vertices();
  std::vector<uint32_t> deg(n);
  std::vector<bool> alive(n, true);
  std::vector<uint32_t> core(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = static_cast<uint32_t>(g.degree(v));
  }
  size_t remaining = n;
  uint32_t k = 0;
  while (remaining > 0) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (VertexId v = 0; v < n; ++v) {
        if (alive[v] && deg[v] <= k) {
          alive[v] = false;
          core[v] = k;
          --remaining;
          progressed = true;
          for (VertexId u : g.Neighbors(v)) {
            if (alive[u] && deg[u] > 0) {
              --deg[u];
            }
          }
        }
      }
    }
    ++k;
  }
  return core;
}

struct Workload {
  Workload() : ref(kN) {
    DatasetSpec spec{"K", 9, 5.0, 77};
    edges = BuildDatasetEdges(spec);
    for (const Edge& e : edges) {
      ref.Insert(e.src, e.dst);
    }
  }
  static constexpr VertexId kN = 512;
  std::vector<Edge> edges;
  RefGraph ref;
};

Workload& SharedWorkload() {
  static Workload w;
  return w;
}

template <typename E>
class ExtraKernelTest : public ::testing::Test {};

using EngineTypes = ::testing::Types<LSGraph, AspenGraph>;
TYPED_TEST_SUITE(ExtraKernelTest, EngineTypes);

TYPED_TEST(ExtraKernelTest, KCoreMatchesReference) {
  Workload& w = SharedWorkload();
  ThreadPool pool(4);
  TypeParam g(Workload::kN);
  g.BuildFromEdges(w.edges);
  std::vector<uint32_t> got = KCoreDecomposition(g, pool);
  std::vector<uint32_t> expected = RefKCore(w.ref);
  for (VertexId v = 0; v < Workload::kN; ++v) {
    ASSERT_EQ(got[v], expected[v]) << "vertex " << v;
  }
}

TYPED_TEST(ExtraKernelTest, MisIsIndependentAndMaximal) {
  Workload& w = SharedWorkload();
  ThreadPool pool(4);
  TypeParam g(Workload::kN);
  g.BuildFromEdges(w.edges);
  std::vector<MisState> state = MaximalIndependentSet(g, pool);
  size_t in_count = 0;
  for (VertexId v = 0; v < Workload::kN; ++v) {
    ASSERT_NE(state[v], MisState::kUndecided);
    if (state[v] != MisState::kIn) {
      continue;
    }
    ++in_count;
    // Independence: no two adjacent IN vertices.
    for (VertexId u : w.ref.Neighbors(v)) {
      if (u != v) {
        ASSERT_NE(state[u], MisState::kIn) << v << " ~ " << u;
      }
    }
  }
  EXPECT_GT(in_count, 0u);
  // Maximality: every OUT vertex has an IN neighbor.
  for (VertexId v = 0; v < Workload::kN; ++v) {
    if (state[v] != MisState::kOut) {
      continue;
    }
    bool has_in_neighbor = false;
    for (VertexId u : w.ref.Neighbors(v)) {
      if (u != v && state[u] == MisState::kIn) {
        has_in_neighbor = true;
      }
    }
    ASSERT_TRUE(has_in_neighbor) << "vertex " << v;
  }
}

TEST(ExtraKernelEdgeCases, KCoreOnEdgelessGraphIsAllZero) {
  ThreadPool pool(2);
  LSGraph g(8);
  std::vector<uint32_t> core = KCoreDecomposition(g, pool);
  EXPECT_TRUE(std::all_of(core.begin(), core.end(),
                          [](uint32_t c) { return c == 0; }));
}

TEST(ExtraKernelEdgeCases, KCoreOfCliqueIsNMinusOne) {
  ThreadPool pool(2);
  constexpr VertexId kN = 8;
  LSGraph g(kN);
  for (VertexId a = 0; a < kN; ++a) {
    for (VertexId b = 0; b < kN; ++b) {
      if (a != b) {
        g.InsertEdge(a, b);
      }
    }
  }
  std::vector<uint32_t> core = KCoreDecomposition(g, pool);
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(core[v], kN - 1);
  }
}

TEST(ExtraKernelEdgeCases, MisOnEdgelessGraphIsEverything) {
  ThreadPool pool(2);
  LSGraph g(5);
  std::vector<MisState> state = MaximalIndependentSet(g, pool);
  for (MisState s : state) {
    EXPECT_EQ(s, MisState::kIn);
  }
}

TEST(ExtraKernelEdgeCases, MisOnCliqueIsSingleton) {
  ThreadPool pool(2);
  constexpr VertexId kN = 6;
  LSGraph g(kN);
  for (VertexId a = 0; a < kN; ++a) {
    for (VertexId b = 0; b < kN; ++b) {
      if (a != b) {
        g.InsertEdge(a, b);
      }
    }
  }
  std::vector<MisState> state = MaximalIndependentSet(g, pool);
  size_t in_count = 0;
  for (MisState s : state) {
    in_count += s == MisState::kIn;
  }
  EXPECT_EQ(in_count, 1u);
  EXPECT_EQ(state[0], MisState::kIn);  // lexicographically-first MIS
}

}  // namespace
}  // namespace lsg
