#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/baselines/ctree_graph.h"
#include "src/core/lsgraph.h"
#include "src/gen/lsgbin.h"
#include "src/gen/rmat.h"

namespace lsg {
namespace {

TEST(SnapshotTest, DumpEdgesIsSortedAndComplete) {
  LSGraph g(16);
  g.InsertEdge(3, 1);
  g.InsertEdge(0, 5);
  g.InsertEdge(3, 0);
  std::vector<Edge> edges = DumpEdges(g);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 5}, {3, 0}, {3, 1}}));
}

TEST(SnapshotTest, SaveLoadRoundtripsAcrossEngineTypes) {
  RmatGenerator gen({8, 0.5, 0.1, 0.1}, 45);
  LSGraph original(256);
  original.BuildFromEdges(gen.Generate(0, 4000));
  std::string path = ::testing::TempDir() + "/snap.lsgbin";
  WriteLsgbin(path, original.num_vertices(), DumpEdges(original));

  // Reload into a different engine type: .lsgbin is engine-agnostic.
  LoadedGraph loaded = LoadLsgbin(path);
  ASSERT_EQ(loaded.num_vertices, 256u);
  AspenGraph reloaded(loaded.num_vertices);
  reloaded.BuildFromEdges(std::move(loaded.edges));
  EXPECT_EQ(reloaded.num_edges(), original.num_edges());
  for (VertexId v = 0; v < 256; ++v) {
    std::vector<VertexId> a;
    std::vector<VertexId> b;
    original.map_neighbors(v, [&](VertexId u) { a.push_back(u); });
    reloaded.map_neighbors(v, [&](VertexId u) { b.push_back(u); });
    ASSERT_EQ(a, b) << "vertex " << v;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lsg
