// Tests for the shared parallel batch-ingestion pipeline: ParallelSortEdges
// must be byte-identical to the serial RadixSortEdges + DedupSortedEdges
// reference on adversarial inputs, PrepareBatch's fused grouping must match
// a serial boundary scan, and every engine's InsertBatch / DeleteBatch must
// agree with a std::set reference across 1/2/8 threads under heavy source
// duplication, duplicate (src, dst) pairs, and single-hub skew.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "src/baselines/ctree_graph.h"
#include "src/baselines/terrace_graph.h"
#include "src/core/edgemap.h"
#include "src/core/lsgraph.h"
#include "src/parallel/thread_pool.h"
#include "src/util/prng.h"
#include "src/util/sort.h"
#include "tests/reference.h"

namespace lsg {
namespace {

std::vector<Edge> SerialSortDedup(std::vector<Edge> edges) {
  RadixSortEdges(edges);
  DedupSortedEdges(edges);
  return edges;
}

std::vector<size_t> SerialStarts(const std::vector<Edge>& sorted) {
  std::vector<size_t> starts;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i].src != sorted[i - 1].src) {
      starts.push_back(i);
    }
  }
  starts.push_back(sorted.size());
  return starts;
}

void ExpectByteIdentical(const std::vector<Edge>& got,
                         const std::vector<Edge>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Edge)));
  }
}

std::vector<Edge> RandomEdges(size_t n, VertexId universe, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    edges.push_back({static_cast<VertexId>(rng.NextBounded(universe)),
                     static_cast<VertexId>(rng.NextBounded(universe))});
  }
  return edges;
}

TEST(ParallelSortEdgesTest, MatchesSerialOnRandomInputs) {
  for (size_t nthreads : {2u, 8u}) {
    ThreadPool pool(nthreads);
    uint64_t seed = 1;
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{100},
                     size_t{2047}, size_t{2048}, size_t{5000}, size_t{40000},
                     size_t{200000}}) {
      for (VertexId universe : {VertexId{8}, VertexId{1000},
                                VertexId{1} << 20}) {
        std::vector<Edge> edges = RandomEdges(n, universe, seed++);
        std::vector<Edge> want = SerialSortDedup(edges);
        ParallelSortEdges(edges, pool);
        ExpectByteIdentical(edges, want);
      }
    }
  }
}

TEST(ParallelSortEdgesTest, AllEqualKeys) {
  ThreadPool pool(4);
  std::vector<Edge> edges(50000, Edge{7, 9});
  std::vector<Edge> want = SerialSortDedup(edges);
  ParallelSortEdges(edges, pool);
  ExpectByteIdentical(edges, want);
  EXPECT_EQ(edges.size(), 1u);
}

TEST(ParallelSortEdgesTest, ReverseSortedAndPresorted) {
  ThreadPool pool(4);
  std::vector<Edge> reversed;
  for (size_t i = 50000; i-- > 0;) {
    reversed.push_back({static_cast<VertexId>(i / 4),
                        static_cast<VertexId>(i % 4)});
  }
  std::vector<Edge> want = SerialSortDedup(reversed);
  std::vector<Edge> presorted = want;  // already sorted + unique
  ParallelSortEdges(reversed, pool);
  ExpectByteIdentical(reversed, want);
  ParallelSortEdges(presorted, pool);
  ExpectByteIdentical(presorted, want);
}

TEST(ParallelSortEdgesTest, SingleHubSourceWithDuplicates) {
  ThreadPool pool(8);
  SplitMix64 rng(99);
  std::vector<Edge> edges;
  // 70% of the batch hits one source with a small dst range, so duplicate
  // (src, dst) pairs are dense and the key range collapses to dst bits.
  for (size_t i = 0; i < 70000; ++i) {
    edges.push_back({42, static_cast<VertexId>(rng.NextBounded(5000))});
  }
  for (size_t i = 0; i < 30000; ++i) {
    edges.push_back({static_cast<VertexId>(rng.NextBounded(1000)),
                     static_cast<VertexId>(rng.NextBounded(1000))});
  }
  std::vector<Edge> want = SerialSortDedup(edges);
  ParallelSortEdges(edges, pool);
  ExpectByteIdentical(edges, want);
}

TEST(ParallelSortEdgesTest, ExtremeVertexIds) {
  ThreadPool pool(4);
  SplitMix64 rng(7);
  std::vector<Edge> edges;
  for (size_t i = 0; i < 40000; ++i) {
    // Keys clustered near the top of the 64-bit key space.
    edges.push_back(
        {static_cast<VertexId>(~VertexId{0} - rng.NextBounded(17)),
         static_cast<VertexId>(~VertexId{0} - rng.NextBounded(100000))});
  }
  std::vector<Edge> want = SerialSortDedup(edges);
  ParallelSortEdges(edges, pool);
  ExpectByteIdentical(edges, want);
}

TEST(PrepareBatchTest, FusedGroupingMatchesSerialScan) {
  for (size_t nthreads : {1u, 2u, 8u}) {
    ThreadPool pool(nthreads);
    std::vector<Edge> edges = RandomEdges(120000, 5000, 11 + nthreads);
    std::vector<Edge> want = SerialSortDedup(edges);
    PreparedBatch pb = PrepareBatch(std::move(edges), pool);
    ExpectByteIdentical(pb.edges, want);
    EXPECT_EQ(pb.starts, SerialStarts(want));
  }
}

TEST(PrepareBatchTest, OrderIsLargestFirstPermutation) {
  ThreadPool pool(4);
  SplitMix64 rng(3);
  std::vector<Edge> edges;
  for (size_t i = 0; i < 60000; ++i) {  // hub + tail of small groups
    edges.push_back({5, static_cast<VertexId>(rng.NextBounded(40000))});
  }
  for (size_t i = 0; i < 40000; ++i) {
    edges.push_back({static_cast<VertexId>(rng.NextBounded(20000)),
                     static_cast<VertexId>(rng.NextBounded(50))});
  }
  PreparedBatch pb = PrepareBatch(std::move(edges), pool);
  ASSERT_EQ(pb.order.size(), pb.groups());
  std::vector<uint8_t> seen(pb.groups(), 0);
  int prev_class = 65;
  for (uint32_t g : pb.order) {
    ASSERT_LT(g, pb.groups());
    EXPECT_FALSE(seen[g]);
    seen[g] = 1;
    // Sizes are ordered by descending size class (within a class sizes may
    // interleave, but a strictly larger class never follows a smaller one).
    int cls = std::bit_width(pb.group_end(g) - pb.group_begin(g));
    EXPECT_LE(cls, prev_class);
    prev_class = cls;
  }
  // The hub group must be scheduled first.
  EXPECT_EQ(pb.group_source(pb.order[0]), 5u);
}

TEST(PrepareBatchTest, EmptyBatch) {
  ThreadPool pool(2);
  PreparedBatch pb = PrepareBatch({}, pool);
  EXPECT_TRUE(pb.edges.empty());
  EXPECT_EQ(pb.groups(), 0u);
  size_t calls = 0;
  ForEachGroupLargestFirst(pb, pool, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(PrepareBatchTest, PhaseStatsArePopulated) {
  ThreadPool pool(4);
  PrepareStats stats;
  PreparedBatch pb =
      PrepareBatch(RandomEdges(100000, 10000, 21), pool, &stats);
  EXPECT_GT(pb.groups(), 0u);
  EXPECT_GT(stats.sort_seconds, 0.0);
  EXPECT_GE(stats.group_seconds, 0.0);
}

TEST(VertexSubsetTest, AllIsImplicitUntilAsked) {
  // kAll is O(1): no id array, no bitmap. Either materializes only when
  // explicitly requested.
  VertexSubset all = VertexSubset::All(100000);
  ASSERT_EQ(all.size(), 100000u);
  EXPECT_TRUE(all.is_all());
  EXPECT_FALSE(all.sparse_materialized());
  EXPECT_FALSE(all.dense_materialized());
  ThreadPool pool(8);
  const std::vector<VertexId>& ids = all.vertices(&pool);
  EXPECT_TRUE(all.sparse_materialized());
  ASSERT_EQ(ids.size(), 100000u);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], static_cast<VertexId>(i));
  }
  const AtomicBitset& bits = all.bits(&pool);
  EXPECT_TRUE(all.dense_materialized());
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(99999));
}

// ---- Engine equivalence vs a std::set reference across thread counts. ----

template <typename E>
std::unique_ptr<E> MakeEngine(VertexId n, ThreadPool* pool);

template <>
std::unique_ptr<LSGraph> MakeEngine(VertexId n, ThreadPool* pool) {
  return std::make_unique<LSGraph>(n, Options{}, pool);
}
template <>
std::unique_ptr<TerraceGraph> MakeEngine(VertexId n, ThreadPool* pool) {
  return std::make_unique<TerraceGraph>(n, TerraceOptions{}, pool);
}
template <>
std::unique_ptr<AspenGraph> MakeEngine(VertexId n, ThreadPool* pool) {
  return std::make_unique<AspenGraph>(n, pool);
}
template <>
std::unique_ptr<PacTreeGraph> MakeEngine(VertexId n, ThreadPool* pool) {
  return std::make_unique<PacTreeGraph>(n, pool);
}

template <typename E>
void ExpectMatchesReference(const E& g, const RefGraph& ref) {
  ASSERT_EQ(g.num_edges(), ref.num_edges());
  ASSERT_TRUE(g.CheckInvariants());
  for (VertexId v = 0; v < ref.num_vertices(); ++v) {
    ASSERT_EQ(g.degree(v), ref.degree(v)) << "vertex " << v;
    std::vector<VertexId> got;
    g.map_neighbors(v, [&got](VertexId u) { got.push_back(u); });
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, ref.Neighbors(v)) << "vertex " << v;
  }
}

size_t RefInsertBatch(RefGraph& ref, const std::vector<Edge>& batch) {
  size_t added = 0;
  for (const Edge& e : batch) {
    added += ref.Insert(e.src, e.dst);
  }
  return added;
}

size_t RefDeleteBatch(RefGraph& ref, const std::vector<Edge>& batch) {
  size_t removed = 0;
  for (const Edge& e : batch) {
    removed += ref.Delete(e.src, e.dst);
  }
  return removed;
}

template <typename E>
class BatchEquivalenceTest : public ::testing::Test {};

using EngineTypes = ::testing::Types<LSGraph, TerraceGraph, AspenGraph,
                                     PacTreeGraph>;
TYPED_TEST_SUITE(BatchEquivalenceTest, EngineTypes);

TYPED_TEST(BatchEquivalenceTest, RandomizedAgainstSetReference) {
  constexpr VertexId kV = 3000;
  for (size_t nthreads : {1u, 2u, 8u}) {
    ThreadPool pool(nthreads);
    auto g = MakeEngine<TypeParam>(kV, &pool);
    RefGraph ref(kV);
    SplitMix64 rng(1000 + nthreads);

    // Base load: random batch with natural duplicates.
    std::vector<Edge> base = RandomEdges(20000, kV, rng.Next());
    EXPECT_EQ(g->InsertBatch(base), RefInsertBatch(ref, base));
    ExpectMatchesReference(*g, ref);

    // Heavy source duplication: ten sources, narrow dst range, so both
    // duplicate sources and duplicate (src, dst) pairs are dense.
    std::vector<Edge> dup_heavy;
    for (size_t i = 0; i < 30000; ++i) {
      dup_heavy.push_back({static_cast<VertexId>(rng.NextBounded(10)),
                           static_cast<VertexId>(rng.NextBounded(200))});
    }
    EXPECT_EQ(g->InsertBatch(dup_heavy), RefInsertBatch(ref, dup_heavy));
    ExpectMatchesReference(*g, ref);

    // Single hub vertex receiving > 50% of the batch (skew scheduler path).
    std::vector<Edge> hub;
    for (size_t i = 0; i < 25000; ++i) {
      hub.push_back({42, static_cast<VertexId>(rng.NextBounded(kV))});
    }
    for (size_t i = 0; i < 15000; ++i) {
      hub.push_back({static_cast<VertexId>(rng.NextBounded(kV)),
                     static_cast<VertexId>(rng.NextBounded(kV))});
    }
    EXPECT_EQ(g->InsertBatch(hub), RefInsertBatch(ref, hub));
    ExpectMatchesReference(*g, ref);

    // Deletion mixing present and absent edges, with the hub again heavy.
    std::vector<Edge> del;
    for (size_t i = 0; i < 20000; ++i) {
      del.push_back({42, static_cast<VertexId>(rng.NextBounded(kV))});
    }
    for (size_t i = 0; i < 10000; ++i) {
      del.push_back({static_cast<VertexId>(rng.NextBounded(kV)),
                     static_cast<VertexId>(rng.NextBounded(kV))});
    }
    EXPECT_EQ(g->DeleteBatch(del), RefDeleteBatch(ref, del));
    ExpectMatchesReference(*g, ref);
  }
}

}  // namespace
}  // namespace lsg
