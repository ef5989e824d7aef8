#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/analytics/bc.h"
#include "src/analytics/bfs.h"
#include "src/analytics/cc.h"
#include "src/analytics/pagerank.h"
#include "src/analytics/tc.h"
#include "src/core/cria.h"
#include "src/core/hitree.h"
#include "src/core/lsgraph.h"
#include "src/core/ria.h"
#include "src/gen/datasets.h"
#include "src/parallel/thread_pool.h"
#include "src/util/prng.h"

namespace lsg {
namespace {

Options MakeOptions(uint32_t block_bytes = 32, double alpha = 1.2,
                    CoreStats* stats = nullptr) {
  Options o;
  o.compress_leaves = true;
  o.cria_block_bytes = block_bytes;
  o.alpha = alpha;
  o.stats = stats;
  return o;
}

TEST(CriaTest, EmptyCria) {
  Cria cria(MakeOptions());
  EXPECT_TRUE(cria.empty());
  EXPECT_FALSE(cria.Contains(3));
  EXPECT_FALSE(cria.Delete(3));
  EXPECT_TRUE(cria.CheckInvariants());
}

TEST(CriaTest, FirstInsertBootstraps) {
  Cria cria(MakeOptions());
  EXPECT_TRUE(cria.Insert(42));
  EXPECT_TRUE(cria.Contains(42));
  EXPECT_EQ(cria.First(), 42u);
  EXPECT_EQ(cria.size(), 1u);
  EXPECT_TRUE(cria.CheckInvariants());
}

TEST(CriaTest, BulkLoadRoundTrips) {
  Cria cria(MakeOptions());
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < 1000; ++v) {
    ids.push_back(v * 5);
  }
  cria.BulkLoad(ids);
  EXPECT_EQ(cria.size(), 1000u);
  EXPECT_EQ(cria.Decode(), ids);
  EXPECT_TRUE(cria.CheckInvariants());
}

TEST(CriaTest, DuplicateInsertRejected) {
  Cria cria(MakeOptions());
  std::vector<VertexId> ids = {1, 2, 3, 4, 5};
  cria.BulkLoad(ids);
  EXPECT_FALSE(cria.Insert(3));
  EXPECT_EQ(cria.size(), 5u);
}

TEST(CriaTest, ContainsFindsAnchorsAndInteriorIds) {
  Cria cria(MakeOptions(16));  // small blocks: many anchors
  std::vector<VertexId> ids;
  for (VertexId v = 10; v < 500; v += 3) {
    ids.push_back(v);
  }
  cria.BulkLoad(ids);
  for (VertexId v = 0; v < 520; ++v) {
    EXPECT_EQ(cria.Contains(v), std::binary_search(ids.begin(), ids.end(), v))
        << v;
  }
}

TEST(CriaTest, MapStopsEarly) {
  Cria cria(MakeOptions());
  std::vector<VertexId> ids = {2, 4, 6, 8, 10};
  cria.BulkLoad(ids);
  std::vector<VertexId> seen;
  bool finished = cria.Map([&seen](VertexId v) {
    seen.push_back(v);
    return v < 6;
  });
  EXPECT_FALSE(finished);
  EXPECT_EQ(seen, (std::vector<VertexId>{2, 4, 6}));
  EXPECT_TRUE(cria.Map([](VertexId) { return true; }));
}

TEST(CriaTest, WideDeltasUseMultiByteVarints) {
  // Deltas straddling the 1/2/3-byte varint boundaries, plus the max id.
  Cria cria(MakeOptions(32));
  std::vector<VertexId> ids = {0,      1,       128,        16384,
                               100000, 4000000, 0xfffffffe};
  cria.BulkLoad(ids);
  EXPECT_EQ(cria.Decode(), ids);
  for (VertexId v : ids) {
    EXPECT_TRUE(cria.Contains(v)) << v;
  }
  EXPECT_TRUE(cria.Insert(0xfffffffd));
  EXPECT_TRUE(cria.Delete(16384));
  EXPECT_TRUE(cria.CheckInvariants());
}

TEST(CriaTest, MapDecodesExtremeDeltasAcrossManyBlocks) {
  // Stress the fused window decoder: every varint length (1-5 bytes)
  // interleaved, spread over enough blocks to exercise the quad, pair, and
  // serial remainder paths plus their drain loops (counts differ per block
  // because the widths vary). Checked at several block counts so each
  // remainder (num_blocks % 4 in 0..3) is hit.
  SplitMix64 rng(21);
  for (int target_blocks = 1; target_blocks <= 9; ++target_blocks) {
    Cria cria(MakeOptions(32));
    std::vector<VertexId> ids;
    uint64_t v = 0;
    while (cria.num_blocks() < static_cast<size_t>(target_blocks)) {
      static constexpr uint64_t kSpans[5] = {1, 1u << 7, 1u << 14, 1u << 21,
                                             1u << 28};
      v += kSpans[rng.Next() % 5] + rng.Next() % 64;
      if (v > 0xfffffffeULL) {
        break;
      }
      ids.push_back(static_cast<VertexId>(v));
      cria.BulkLoad(ids);
    }
    EXPECT_EQ(cria.Decode(), ids) << "blocks=" << target_blocks;
    ASSERT_TRUE(cria.CheckInvariants());
  }
}

TEST(CriaTest, RandomizedInsertDeleteMatchesSet) {
  // Tiny blocks force frequent redistributions and rebuilds.
  CoreStats stats;
  Cria cria(MakeOptions(16, 1.1, &stats));
  std::set<VertexId> ref;
  SplitMix64 rng(7);
  for (int i = 0; i < 6000; ++i) {
    VertexId v = static_cast<VertexId>(rng.Next() % 2048);
    if (rng.Next() % 3 != 0) {
      EXPECT_EQ(cria.Insert(v), ref.insert(v).second);
    } else {
      EXPECT_EQ(cria.Delete(v), ref.erase(v) != 0);
    }
    if (i % 256 == 0) {
      ASSERT_TRUE(cria.CheckInvariants()) << "op " << i;
    }
  }
  ASSERT_TRUE(cria.CheckInvariants());
  std::vector<VertexId> expect(ref.begin(), ref.end());
  EXPECT_EQ(cria.Decode(), expect);
  // The churn must have exercised the multi-block re-encode paths.
  EXPECT_GT(cria.stats().redistributions + cria.stats().rebuilds, 0u);
  EXPECT_GT(stats.cria_recompressions.load(), 0u);
}

TEST(CriaTest, DeleteHeavyStreamContractsAllocation) {
  Cria cria(MakeOptions(64, 1.2));
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < 20000; ++v) {
    ids.push_back(v);
  }
  cria.BulkLoad(ids);
  size_t full = cria.memory_footprint();
  SplitMix64 rng(3);
  while (cria.size() > 100) {
    VertexId v = static_cast<VertexId>(rng.Next() % 20000);
    cria.Delete(v);
  }
  ASSERT_TRUE(cria.CheckInvariants());
  EXPECT_GT(cria.stats().contractions, 0u);
  EXPECT_LT(cria.memory_footprint(), full / 8);
}

TEST(CriaTest, NeighborsDecodedCounterTracksScans) {
  CoreStats stats;
  Cria cria(MakeOptions(32, 1.2, &stats));
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < 100; ++v) {
    ids.push_back(v * 2);
  }
  cria.BulkLoad(ids);
  stats.neighbors_decoded = 0;
  cria.Map([](VertexId) {});
  EXPECT_EQ(stats.neighbors_decoded.load(), 100u);
  stats.neighbors_decoded = 0;
  cria.Map([](VertexId v) { return v < 10; });  // stops at 10: 6 decoded
  EXPECT_EQ(stats.neighbors_decoded.load(), 6u);
  stats.neighbors_decoded = 0;
  cria.Contains(0);  // anchor hit: one id
  EXPECT_EQ(stats.neighbors_decoded.load(), 1u);
  uint64_t before = stats.neighbors_decoded.load();
  cria.Insert(33);  // update path decodes its home block
  EXPECT_GT(stats.neighbors_decoded.load(), before);
}

TEST(CriaTest, BytesResidentGaugeFollowsLifetime) {
  CoreStats stats;
  {
    Cria cria(MakeOptions(64, 1.2, &stats));
    std::vector<VertexId> ids;
    for (VertexId v = 0; v < 5000; ++v) {
      ids.push_back(v * 3);
    }
    cria.BulkLoad(ids);
    uint64_t resident = stats.bytes_resident.load();
    EXPECT_EQ(resident, cria.memory_footprint());
    cria.BulkLoad(std::vector<VertexId>{1, 2, 3});
    EXPECT_LT(stats.bytes_resident.load(), resident);
    EXPECT_EQ(stats.bytes_resident.load(), cria.memory_footprint());
  }
  EXPECT_EQ(stats.bytes_resident.load(), 0u);  // destructor released it all
}

TEST(CriaTest, CompressesDenseRunsWellBelowRawRia) {
  Options copt = MakeOptions(128);
  Options ropt;  // raw defaults
  std::vector<VertexId> ids;
  SplitMix64 rng(11);
  std::set<VertexId> pick;
  while (pick.size() < 50000) {
    pick.insert(static_cast<VertexId>(rng.Next() % 400000));  // avg delta 8
  }
  ids.assign(pick.begin(), pick.end());
  Cria cria(copt);
  cria.BulkLoad(ids);
  Ria ria(ropt);
  ria.BulkLoad(ids);
  EXPECT_EQ(cria.Decode(), ria.Decode());
  // >= 2x on the adjacency bytes, the Table 3 axis this mode targets.
  EXPECT_LT(cria.memory_footprint() * 2, ria.memory_footprint());
}

// ---------------------------------------------------------------- HiNode --

TEST(CriaHiNodeTest, CompressedLadderUpAndDown) {
  CoreStats stats;
  Options o = MakeOptions(32, 1.2, &stats);
  o.m_threshold = 64;
  HiNode node(o);
  node.BulkLoad(std::vector<VertexId>{});
  EXPECT_EQ(node.kind(), HiNode::Kind::kCria);
  std::set<VertexId> ref;
  SplitMix64 rng(5);
  // Grow past M: the CRIA must convert to a HITree whose leaves compress.
  while (ref.size() < 400) {
    VertexId v = static_cast<VertexId>(rng.Next() % 100000);
    EXPECT_EQ(node.Insert(v), ref.insert(v).second);
  }
  EXPECT_EQ(node.kind(), HiNode::Kind::kLia);
  EXPECT_GT(stats.ria_to_hitree_conversions.load(), 0u);
  std::vector<VertexId> expect(ref.begin(), ref.end());
  EXPECT_EQ(node.Decode(), expect);
  ASSERT_TRUE(node.CheckInvariants());
  // Shrink below M/2: downgrade back to a flat CRIA.
  while (ref.size() > 20) {
    VertexId v = *ref.begin();
    ref.erase(ref.begin());
    EXPECT_TRUE(node.Delete(v));
  }
  EXPECT_EQ(node.kind(), HiNode::Kind::kCria);
  EXPECT_GT(stats.hitree_to_ria_conversions.load(), 0u);
  expect.assign(ref.begin(), ref.end());
  EXPECT_EQ(node.Decode(), expect);
  ASSERT_TRUE(node.CheckInvariants());
}

// --------------------------------------------------------------- LSGraph --

std::vector<Edge> TestEdges() {
  return BuildDatasetEdges(TestDataset(), /*symmetrize=*/true);
}

TEST(CriaLSGraphTest, CompressedEngineMatchesRawOnBuildAndUpdates) {
  ThreadPool pool(4);
  std::vector<Edge> edges = TestEdges();
  Options copt;
  copt.compress_leaves = true;
  LSGraph raw(1u << 10, Options{}, &pool);
  LSGraph comp(1u << 10, copt, &pool);
  raw.BuildFromEdges(edges);
  comp.BuildFromEdges(edges);
  ASSERT_EQ(raw.num_edges(), comp.num_edges());
  ASSERT_TRUE(comp.CheckInvariants());

  // Batched churn drives the grouped-batch merge path (groups of all sizes).
  std::vector<Edge> batch = BuildUpdateBatch(TestDataset(), 4000, 0);
  EXPECT_EQ(raw.InsertBatch(batch), comp.InsertBatch(batch));
  EXPECT_EQ(raw.num_edges(), comp.num_edges());
  std::vector<Edge> del(batch.begin(), batch.begin() + batch.size() / 2);
  EXPECT_EQ(raw.DeleteBatch(del), comp.DeleteBatch(del));
  EXPECT_EQ(raw.num_edges(), comp.num_edges());
  ASSERT_TRUE(comp.CheckInvariants());

  for (VertexId v = 0; v < raw.num_vertices(); ++v) {
    ASSERT_EQ(raw.degree(v), comp.degree(v)) << v;
    std::vector<VertexId> a;
    std::vector<VertexId> b;
    raw.FillNeighbors(v, &a);
    comp.FillNeighbors(v, &b);
    ASSERT_EQ(a, b) << v;
  }
  EXPECT_GT(comp.stats().bytes_resident.load(), 0u);
  EXPECT_GT(comp.stats().neighbors_decoded.load(), 0u);
  EXPECT_GT(comp.stats().cria_recompressions.load(), 0u);
}

TEST(CriaLSGraphTest, CompressedAdjacencyAtLeastHalvesTailBytes) {
  // Compression pays off where adjacency tails are substantial: per-tail
  // object overhead is fixed, so a denser rMat (avg symmetrized degree
  // ~115 -> mostly one-byte deltas at this scale) is the regime the mode
  // targets. Sparse graphs keep most ids inline, where both modes are
  // byte-identical.
  ThreadPool pool(4);
  std::vector<Edge> edges =
      BuildDatasetEdges(DatasetSpec{"DENSE", 10, 64.0, 7}, /*symmetrize=*/true);
  Options copt;
  copt.compress_leaves = true;
  LSGraph raw(1u << 10, Options{}, &pool);
  LSGraph comp(1u << 10, copt, &pool);
  raw.BuildFromEdges(edges);
  comp.BuildFromEdges(edges);
  ASSERT_EQ(raw.tail_edges(), comp.tail_edges());
  EXPECT_LT(comp.adjacency_bytes() * 2, raw.adjacency_bytes());
}

TEST(CriaLSGraphTest, AllFiveKernelsIdenticalInBothModes) {
  ThreadPool pool(4);
  std::vector<Edge> edges = TestEdges();
  Options copt;
  copt.compress_leaves = true;
  LSGraph raw(1u << 10, Options{}, &pool);
  LSGraph comp(1u << 10, copt, &pool);
  raw.BuildFromEdges(edges);
  comp.BuildFromEdges(std::move(edges));

  BfsResult bfs_raw = Bfs(raw, 0, pool);
  BfsResult bfs_comp = Bfs(comp, 0, pool);
  EXPECT_EQ(bfs_raw.level, bfs_comp.level);  // parents may legally differ
  EXPECT_EQ(bfs_raw.reached, bfs_comp.reached);

  EXPECT_EQ(ConnectedComponents(raw, pool), ConnectedComponents(comp, pool));
  EXPECT_EQ(TriangleCount(raw, pool).triangles,
            TriangleCount(comp, pool).triangles);

  std::vector<double> pr_raw = PageRank(raw, pool);
  std::vector<double> pr_comp = PageRank(comp, pool);
  ASSERT_EQ(pr_raw.size(), pr_comp.size());
  for (size_t i = 0; i < pr_raw.size(); ++i) {
    EXPECT_NEAR(pr_raw[i], pr_comp[i], 1e-9) << i;
  }

  std::vector<double> bc_raw = BetweennessCentrality(raw, 0, pool);
  std::vector<double> bc_comp = BetweennessCentrality(comp, 0, pool);
  ASSERT_EQ(bc_raw.size(), bc_comp.size());
  for (size_t i = 0; i < bc_raw.size(); ++i) {
    EXPECT_NEAR(bc_raw[i], bc_comp[i], 1e-6) << i;
  }
}

}  // namespace
}  // namespace lsg
