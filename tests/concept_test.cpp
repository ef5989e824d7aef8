// Compile-time API contract: every engine satisfies StreamingEngine, and
// GraphView rejects types the kernels cannot run on. Failures here are build
// breaks by design.
#include <gtest/gtest.h>

#include "src/baselines/ctree_graph.h"
#include "src/baselines/terrace_graph.h"
#include "src/core/engine_concept.h"
#include "src/core/lsgraph.h"

namespace lsg {
namespace {

static_assert(StreamingEngine<LSGraph>);
static_assert(StreamingEngine<TerraceGraph>);
static_assert(StreamingEngine<AspenGraph>);
static_assert(StreamingEngine<PacTreeGraph>);
static_assert(StreamingEngine<CTreeGraph>);

static_assert(GraphView<LSGraph>);
static_assert(!GraphView<int>);

// A view whose map_neighbors returns void cannot report an early exit, so
// it must be rejected: pull-mode EdgeMap depends on the bool result.
struct VoidMapNeighborsView {
  VertexId num_vertices() const { return 0; }
  EdgeCount num_edges() const { return 0; }
  size_t degree(VertexId) const { return 0; }
  bool HasEdge(VertexId, VertexId) const { return false; }
  template <typename F>
  void map_neighbors(VertexId, F&&) const {}
};
static_assert(!GraphView<VoidMapNeighborsView>);

TEST(ConceptTest, CompileTimeChecksHold) {
  SUCCEED();  // the static_asserts above are the test
}

}  // namespace
}  // namespace lsg
