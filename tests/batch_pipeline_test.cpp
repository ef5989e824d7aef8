// Tests for the shared parallel batch-ingestion pipeline: ParallelSortEdges
// must be byte-identical to the serial RadixSortEdges + DedupSortedEdges
// reference on adversarial inputs, PrepareBatch's fused grouping must match
// a serial boundary scan, and every engine's InsertBatch / DeleteBatch must
// agree with a std::set reference across 1/2/8 threads under heavy source
// duplication, duplicate (src, dst) pairs, and single-hub skew. LSGraph's
// pipelined apply must match the oracle for every tail kind, pool size and
// batch length around the pipeline's distances, with and without a pinned
// snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
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

// RadixSortEdges returns before its radix passes when the input is already
// sorted; nearly sorted inputs must still take the full sort.
TEST(RadixSortEdgesTest, SortedAndNearlySortedInputs) {
  auto sort_unique = [](std::vector<Edge> edges) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
  };
  for (size_t n : {size_t{2048}, size_t{5000}, size_t{200000}}) {
    SCOPED_TRACE(n);
    std::vector<Edge> unique_sorted;
    std::vector<Edge> with_dups;
    for (size_t i = 0; i < n; ++i) {
      // At n = 200000 the sources pass 2^16, so every radix pass has work.
      unique_sorted.push_back({static_cast<VertexId>(i * 37 / 8),
                               static_cast<VertexId>(i % 8)});
      with_dups.push_back({static_cast<VertexId>(i / 16),
                           static_cast<VertexId>(i % 16 / 4)});
    }
    std::vector<Edge> last_out = unique_sorted;
    last_out.back() = {0, 0};
    std::vector<Edge> first_out = unique_sorted;
    first_out.front() = {~VertexId{0}, ~VertexId{0}};
    for (const std::vector<Edge>* input :
         {&unique_sorted, &with_dups, &last_out, &first_out}) {
      ExpectByteIdentical(SerialSortDedup(*input), sort_unique(*input));
    }
  }
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

TEST(PrepareBatchTest, LookaheadRunsBeforeEachGroupAndCountsSum) {
  for (size_t nthreads : {1u, 2u, 8u}) {
    ThreadPool pool(nthreads);
    PreparedBatch pb = PrepareBatch(RandomEdges(50000, 20000, 5), pool);
    std::vector<std::atomic<int>> ahead(pb.groups());
    std::vector<std::atomic<int>> applied(pb.groups());
    size_t total = ForEachGroupLargestFirst(
        pb, pool,
        [&](size_t g) -> size_t {
          // The hook has seen this group's position, and no group runs
          // twice.
          EXPECT_EQ(ahead[g].load(), 1);
          EXPECT_EQ(applied[g].fetch_add(1), 0);
          return pb.group_end(g) - pb.group_begin(g);
        },
        [&](std::span<const uint32_t> chunk, size_t i) {
          ASSERT_LT(i, chunk.size());
          ahead[chunk[i]].fetch_add(1);
        });
    EXPECT_EQ(total, pb.edges.size());
    for (size_t g = 0; g < pb.groups(); ++g) {
      EXPECT_EQ(applied[g].load(), 1);
    }
  }
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

// ---- LSGraph's pipelined batch apply vs a std::set oracle. ----

// Options under which a ~3000-vertex graph holds every tail kind at once:
// degree <= 12 stays inline, then array (<= 4 tail ids), RIA (<= 64) and
// LIA; with compression, CRIA replaces array and RIA.
Options SmallTailOptions(bool compress) {
  Options o;
  o.a_threshold = 4;
  o.m_threshold = 64;
  o.compress_leaves = compress;
  return o;
}

// Target degree of v: a few LIA hubs, RIA and array tails, inline-only.
size_t TailClassDegree(VertexId v) {
  if (v < 12) {
    return 200;
  }
  if (v < 120) {
    return 40;
  }
  if (v < 1200) {
    return 14;
  }
  return 4;
}

// A batch of exactly `groups` distinct sources, some >= n, whose edges mix
// out-of-range destinations in. Deletions name mostly present edges.
std::vector<Edge> GroupBatch(const RefGraph& ref, size_t groups, bool del,
                             SplitMix64& rng) {
  const VertexId n = ref.num_vertices();
  std::vector<VertexId> sources(n + 40);
  std::iota(sources.begin(), sources.end(), VertexId{0});
  for (size_t i = 0; i < groups; ++i) {
    std::swap(sources[i], sources[i + rng.NextBounded(sources.size() - i)]);
  }
  std::vector<Edge> batch;
  for (size_t i = 0; i < groups; ++i) {
    VertexId src = sources[i];
    size_t count = 1 + rng.NextBounded(src < n && src < 120 ? 24 : 4);
    std::vector<VertexId> present =
        src < n ? ref.Neighbors(src) : std::vector<VertexId>{};
    for (size_t k = 0; k < count; ++k) {
      VertexId dst = static_cast<VertexId>(rng.NextBounded(n + 20));
      if (del && !present.empty() && rng.NextBounded(4) != 0) {
        dst = present[rng.NextBounded(present.size())];
      }
      batch.push_back({src, dst});
    }
  }
  return batch;
}

// Applies `batch` to the oracle; returns the edges it changed, and adds to
// *oob the distinct edges the engine must reject as out of range.
size_t RefApply(RefGraph& ref, const std::vector<Edge>& batch, bool del,
                uint64_t* oob) {
  const VertexId n = ref.num_vertices();
  std::vector<Edge> unique = SerialSortDedup(batch);
  size_t changed = 0;
  for (const Edge& e : unique) {
    if (e.src >= n || e.dst >= n) {
      ++*oob;
    } else {
      changed += del ? ref.Delete(e.src, e.dst) : ref.Insert(e.src, e.dst);
    }
  }
  return changed;
}

void ExpectSnapshotMatches(const GraphSnapshot& snap, const RefGraph& ref) {
  ASSERT_EQ(snap.num_edges(), ref.num_edges());
  for (VertexId v = 0; v < ref.num_vertices(); ++v) {
    std::vector<VertexId> got;
    snap.map_neighbors(v, [&got](VertexId u) { got.push_back(u); });
    ASSERT_EQ(got, ref.Neighbors(v)) << "vertex " << v;
  }
}

// Base graph: TailClassDegree(v) random edges out of every vertex v.
std::vector<Edge> TailClassEdges(VertexId n, SplitMix64& rng) {
  std::vector<Edge> base;
  for (VertexId v = 0; v < n; ++v) {
    for (size_t k = 0; k < TailClassDegree(v); ++k) {
      base.push_back({v, static_cast<VertexId>(rng.NextBounded(n))});
    }
  }
  return base;
}

// Applies `batch` to the oracle and to both engines: `free_g` with nothing
// pinned, `pinned_g` with a snapshot of its pre-batch state pinned across
// the apply. Checks the returned count, oob_rejected(), the adjacency and
// the pinned snapshot.
void ApplyAndCheck(LSGraph& free_g, LSGraph& pinned_g, RefGraph& ref,
                   const std::vector<Edge>& batch, bool del, uint64_t* oob) {
  RefGraph before = ref;
  size_t want = RefApply(ref, batch, del, oob);

  EXPECT_EQ(del ? free_g.DeleteBatch(batch) : free_g.InsertBatch(batch),
            want);
  EXPECT_EQ(free_g.oob_rejected(), *oob);
  ExpectMatchesReference(free_g, ref);

  auto snap = pinned_g.Snapshot();
  EXPECT_EQ(del ? pinned_g.DeleteBatch(batch) : pinned_g.InsertBatch(batch),
            want);
  EXPECT_EQ(pinned_g.oob_rejected(), *oob);
  ExpectMatchesReference(pinned_g, ref);
  ExpectSnapshotMatches(*snap, before);
}

TEST(LSGraphApplyTest, MatchesOracleForEveryTailKind) {
  constexpr VertexId kV = 3000;
  // One group, both sides of each pipeline distance (8, 12, 16 positions
  // ahead), and thousands of groups.
  const size_t kGroupCounts[] = {1, 7, 8, 9, 11, 12, 13, 15, 16, 17, 2900};
  for (bool compress : {false, true}) {
    for (size_t nthreads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << "compress " << compress
                                      << ", threads " << nthreads);
      ThreadPool pool(nthreads);
      LSGraph free_g(kV, SmallTailOptions(compress), &pool);
      LSGraph pinned_g(kV, SmallTailOptions(compress), &pool);
      RefGraph ref(kV);
      SplitMix64 rng(77 + nthreads + (compress ? 100 : 0));
      uint64_t oob = 0;
      ApplyAndCheck(free_g, pinned_g, ref, TailClassEdges(kV, rng), false,
                    &oob);
      size_t bands[4] = {};  // inline-only, array, RIA, LIA
      for (VertexId v = 0; v < kV; ++v) {
        size_t tail = ref.degree(v) - std::min(ref.degree(v),
                                               LSGraph::kInlineCap);
        ++bands[tail == 0 ? 0 : tail <= 4 ? 1 : tail <= 64 ? 2 : 3];
      }
      for (size_t band : bands) {
        ASSERT_GT(band, 0u);
      }

      for (size_t groups : kGroupCounts) {
        for (bool del : {false, true}) {
          SCOPED_TRACE(testing::Message() << groups << " groups, "
                                          << (del ? "delete" : "insert"));
          ApplyAndCheck(free_g, pinned_g, ref,
                        GroupBatch(ref, groups, del, rng), del, &oob);
        }
      }
      EXPECT_GT(oob, 0u);
    }
  }
}

// Above one thread, the pool hands each thread chunks of about
// groups / (threads * 256) groups of the apply order. With 40000 groups
// every chunk outruns the farthest distance (16), so all three stages run
// inside chunks while the other threads apply theirs.
TEST(LSGraphApplyTest, FullPipelineInsideChunksOfSeveralThreads) {
  constexpr VertexId kV = 40000;
  for (size_t nthreads : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << nthreads);
    ThreadPool pool(nthreads);
    LSGraph free_g(kV, SmallTailOptions(false), &pool);
    LSGraph pinned_g(kV, SmallTailOptions(false), &pool);
    RefGraph ref(kV);
    SplitMix64 rng(500 + nthreads);
    uint64_t oob = 0;
    ApplyAndCheck(free_g, pinned_g, ref, TailClassEdges(kV, rng), false,
                  &oob);
    for (bool del : {false, true}) {
      ApplyAndCheck(free_g, pinned_g, ref, GroupBatch(ref, kV, del, rng), del,
                    &oob);
    }
  }
}

}  // namespace
}  // namespace lsg
