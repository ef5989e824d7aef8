// Service layer tests (DESIGN.md §13): shard placement determinism, option
// validation, routed-vs-single-engine equivalence on randomized mixed
// workloads, the reads-never-block-on-ingest property, queue backpressure,
// partitioned .lsgbin loading, and teardown ordering.
//
// Runs under the `tsan` CTest label: the drainer threads, view swaps,
// completion handshakes, and concurrent reader/writer workloads here are
// real cross-thread interleavings worth a -DLSG_SANITIZE=thread pass.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lsgraph.h"
#include "src/gen/datasets.h"
#include "src/gen/lsgbin.h"
#include "src/service/router.h"
#include "src/service/shard_map.h"
#include "src/service/sharded_graph.h"
#include "src/service/workload.h"

namespace lsg {
namespace {

// ---- ShardMap ----

TEST(ShardMapTest, HashIsDeterministicTotalAndBalanced) {
  HashShardMap map(4);
  EXPECT_EQ(map.num_shards(), 4u);
  std::vector<size_t> load(4, 0);
  for (VertexId v = 0; v < 10000; ++v) {
    uint32_t s = map.ShardOf(v);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, map.ShardOf(v));  // deterministic
    ++load[s];
  }
  for (size_t l : load) {  // roughly balanced (hash, 10k draws)
    EXPECT_GT(l, 10000 / 4 / 2);
    EXPECT_LT(l, 10000 / 4 * 2);
  }
}

// ---- Option validation ----

TEST(OptionsTest, ValidateRejectsAbsurdValues) {
  EXPECT_EQ(Options{}.Validate(), "");

  Options bad_alpha;
  bad_alpha.alpha = 0.5;
  EXPECT_NE(bad_alpha.Validate(), "");

  Options bad_m;
  bad_m.m_threshold = 0;
  EXPECT_NE(bad_m.Validate(), "");

  Options bad_a;
  bad_a.a_threshold = Options{}.m_threshold + 1;
  EXPECT_NE(bad_a.Validate(), "");

  Options bad_block;
  bad_block.block_size = 0;
  EXPECT_NE(bad_block.Validate(), "");

  // CRIA block bytes gate only when compression is on (uint16 structural
  // ceiling 0xfffe, floor 16).
  Options cria;
  cria.cria_block_bytes = 8;
  EXPECT_EQ(cria.Validate(), "");
  cria.compress_leaves = true;
  EXPECT_NE(cria.Validate(), "");
  cria.cria_block_bytes = 65535;
  EXPECT_NE(cria.Validate(), "");
  cria.cria_block_bytes = 256;
  EXPECT_EQ(cria.Validate(), "");
}

TEST(OptionsTest, EngineCtorThrowsOnInvalidOptions) {
  Options bad;
  bad.m_threshold = 0;
  EXPECT_THROW(LSGraph(16, bad), std::invalid_argument);
}

TEST(ServiceOptionsTest, ValidateRejectsBadShapes) {
  EXPECT_EQ(ServiceOptions{}.Validate(), "");

  ServiceOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_NE(zero_shards.Validate(), "");

  ServiceOptions zero_queue;
  zero_queue.queue_depth = 0;
  EXPECT_NE(zero_queue.Validate(), "");

  // Engine violations propagate through the service options.
  ServiceOptions bad_engine;
  bad_engine.engine.alpha = 1000.0;
  EXPECT_NE(bad_engine.Validate(), "");

  EXPECT_THROW(ShardedGraph(16, nullptr, zero_shards), std::invalid_argument);

  // A shard map disagreeing with num_shards is a construction error.
  ServiceOptions four;
  four.num_shards = 4;
  EXPECT_THROW(ShardedGraph(16, std::make_unique<HashShardMap>(2), four),
               std::invalid_argument);
}

// ---- Routed vs single-engine equivalence ----

struct EquivParam {
  uint32_t reader_threads;
  bool compressed;
};

class ServiceEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(ServiceEquivalenceTest, RandomizedMixedWorkloadMatchesOracle) {
  const EquivParam p = GetParam();
  DatasetSpec spec{"TEST", 10, 8.0, 7 + p.reader_threads};
  const VertexId n = VertexId{1} << spec.scale;
  std::vector<Edge> base = BuildDatasetEdges(spec);

  ServiceOptions sopts;
  sopts.num_shards = 4;
  sopts.engine.compress_leaves = p.compressed;
  ShardedGraph graph(n, std::make_unique<HashShardMap>(4), sopts);
  graph.BuildFromEdges(base);
  Router router(graph);

  WorkloadSpec wl;
  wl.ops = 600;
  wl.point_read_frac = 0.60;
  wl.update_frac = 0.25;
  wl.update_batch_size = 400;
  wl.khop_depth = 2;
  wl.reader_threads = p.reader_threads;
  wl.seed = spec.seed;
  wl.updates = spec;
  ASSERT_EQ(wl.Validate(), "");

  WorkloadResult res = RunWorkload(router, wl);
  EXPECT_EQ(res.ops_issued, wl.ops);
  EXPECT_GT(res.point_read.count(), 0u);
  EXPECT_GT(res.update.count(), 0u);

  EXPECT_EQ(
      VerifyAgainstOracle(router, base, res.update_log, sopts.engine, 99),
      "");
  EXPECT_TRUE(graph.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ServiceEquivalenceTest,
    ::testing::Values(EquivParam{1, false}, EquivParam{2, false},
                      EquivParam{8, false}, EquivParam{1, true},
                      EquivParam{2, true}, EquivParam{8, true}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return std::to_string(info.param.reader_threads) + "readers_" +
             (info.param.compressed ? "cria" : "uncompressed");
    });

// ---- Reads never block on ingest (acceptance criterion) ----

TEST(ServiceIngestTest, ReadsProgressWhileMillionEdgeBatchLands) {
  DatasetSpec spec{"TEST", 14, 4.0, 21};
  const VertexId n = VertexId{1} << spec.scale;
  std::vector<Edge> base = BuildDatasetEdges(spec);

  ServiceOptions sopts;
  sopts.num_shards = 4;
  ShardedGraph graph(n, std::make_unique<HashShardMap>(4), sopts);
  graph.BuildFromEdges(base);
  Router router(graph);

  // A ~1M-edge batch, held in the queues while paused.
  RmatGenerator gen({static_cast<int>(spec.scale), 0.5, 0.1, 0.1}, 777);
  std::vector<Edge> big = gen.Generate(0, 1000000);
  ASSERT_GE(big.size(), 1000000u);
  // A probe edge guaranteed in the batch and absent from the base graph.
  const Edge probe = big.front();
  ASSERT_FALSE(router.HasEdge(probe.src, probe.dst))
      << "probe edge already present; pick a different seed";

  graph.PauseIngestForTest(true);
  graph.SubmitInsert(big);

  // Queued but unapplied: reads still serve the pre-batch state instantly.
  EXPECT_FALSE(router.HasEdge(probe.src, probe.dst));
  const size_t degree_before = router.Degree(probe.src);

  // Release the drainers and hammer reads while the batch lands.
  std::atomic<bool> applied{false};
  std::thread flusher([&] {
    graph.PauseIngestForTest(false);
    graph.Flush();
    applied.store(true);
  });
  size_t reads_during_apply = 0;
  while (!applied.load()) {
    volatile size_t sink = router.Degree(probe.src);
    (void)sink;
    volatile bool sink2 = router.HasEdge(probe.src, probe.dst);
    (void)sink2;
    reads_during_apply += 2;
  }
  flusher.join();

  // The million-edge apply takes long enough that a blocked reader would
  // have produced (nearly) zero completed reads in the window.
  EXPECT_GT(reads_during_apply, 100u);
  // And the batch became visible exactly at the flush boundary.
  EXPECT_TRUE(router.HasEdge(probe.src, probe.dst));
  EXPECT_GE(router.Degree(probe.src), degree_before);
  EXPECT_TRUE(graph.CheckInvariants());
}

// ---- Queue backpressure ----

TEST(ServiceIngestTest, SubmitBlocksAtQueueDepthAndResumes) {
  ServiceOptions sopts;
  sopts.num_shards = 2;
  sopts.queue_depth = 2;
  ShardedGraph graph(64, std::make_unique<HashShardMap>(2), sopts);

  graph.PauseIngestForTest(true);
  // Fill every shard's queue to the brim (each submit enqueues one task
  // per shard).
  graph.SubmitInsert({{1, 2}, {3, 4}});
  graph.SubmitInsert({{5, 6}, {7, 8}});
  EXPECT_EQ(graph.PendingBatchesForTest(0), 2u);
  EXPECT_EQ(graph.PendingBatchesForTest(1), 2u);

  std::atomic<bool> third_submitted{false};
  std::thread submitter([&] {
    graph.SubmitInsert({{9, 10}, {11, 12}});
    third_submitted.store(true);
  });
  // The third submit must be parked on backpressure, not completed.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_submitted.load());

  graph.PauseIngestForTest(false);
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  graph.Flush();
  EXPECT_EQ(graph.num_edges(), 6u);
}

// ---- Partitioned .lsgbin loading ----

TEST(ServiceLoadTest, PartitionedLsgbinLoadMatchesBuildFromEdges) {
  DatasetSpec spec = TestDataset();
  const VertexId n = VertexId{1} << spec.scale;
  std::vector<Edge> base = BuildDatasetEdges(spec);
  const std::string path = ::testing::TempDir() + "/service_load.lsgbin";
  ASSERT_GT(WriteLsgbin(path, n, base), 0u);

  ServiceOptions sopts;
  sopts.num_shards = 4;
  ShardedGraph from_file(n, std::make_unique<HashShardMap>(4), sopts);
  from_file.BuildFromLsgbin(path);
  ShardedGraph from_edges(n, std::make_unique<HashShardMap>(4), sopts);
  from_edges.BuildFromEdges(base);

  EXPECT_EQ(from_file.num_edges(), from_edges.num_edges());
  Router ra(from_file), rb(from_edges);
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(ra.Degree(v), rb.Degree(v)) << v;
  }
  for (VertexId v = 0; v < n; v += 17) {
    EXPECT_EQ(ra.Neighbors(v), rb.Neighbors(v)) << v;
  }
  EXPECT_TRUE(from_file.CheckInvariants());
  std::remove(path.c_str());
}

// ---- k-hop and point reads against a hand-built graph ----

TEST(RouterTest, PointReadsAndKHopOnKnownGraph) {
  // Path 0-1-2-3 plus a triangle 4-5-6 (undirected = both directions).
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2},
                             {4, 5}, {5, 4}, {5, 6}, {6, 5}, {6, 4}, {4, 6}};
  ServiceOptions sopts;
  sopts.num_shards = 3;
  ShardedGraph graph(8, std::make_unique<HashShardMap>(3), sopts);
  graph.BuildFromEdges(edges);
  Router router(graph);

  EXPECT_TRUE(router.HasEdge(0, 1));
  EXPECT_FALSE(router.HasEdge(0, 2));
  EXPECT_FALSE(router.HasEdge(0, 99999));  // out of range: false, no throw
  EXPECT_EQ(router.Degree(1), 2u);
  EXPECT_EQ(router.Degree(7), 0u);
  EXPECT_EQ(router.Neighbors(5), (std::vector<VertexId>{4, 6}));

  // k-hop from 0: 1 hop reaches {0,1}; 2 hops {0,1,2}; 3 hops all of the
  // path; the triangle stays unreachable at any depth.
  EXPECT_EQ(router.KHop(0, 0).reached, 1u);
  EXPECT_EQ(router.KHop(0, 1).reached, 2u);
  EXPECT_EQ(router.KHop(0, 2).reached, 3u);
  EXPECT_EQ(router.KHop(0, 3).reached, 4u);
  EXPECT_EQ(router.KHop(0, 10).reached, 4u);
  EXPECT_EQ(router.KHop(4, 1).reached, 3u);  // triangle closes in one hop
  EXPECT_EQ(router.KHop(99999, 2).reached, 0u);  // out of range
}

// ---- Vertex growth and teardown ----

TEST(ServiceAdminTest, AddVerticesGrowsEveryShard) {
  ServiceOptions sopts;
  sopts.num_shards = 2;
  ShardedGraph graph(8, std::make_unique<HashShardMap>(2), sopts);
  graph.BuildFromEdges({{0, 1}, {1, 0}});
  Router router(graph);

  EXPECT_EQ(graph.AddVertices(4), 8u);
  EXPECT_EQ(graph.num_vertices(), 12u);
  // New ids are writable and readable immediately.
  size_t applied = 0;
  EXPECT_EQ(graph.SubmitAndWait(ShardedGraph::UpdateKind::kInsert,
                                {{10, 11}, {11, 10}}, &applied),
            SubmitStatus::kOk);
  EXPECT_EQ(applied, 2u);
  EXPECT_TRUE(router.HasEdge(10, 11));
  EXPECT_EQ(graph.oob_rejected(), 0u);
  // Beyond the grown universe still rejects.
  graph.SubmitAndWait(ShardedGraph::UpdateKind::kInsert, {{50, 51}});
  EXPECT_GT(graph.oob_rejected(), 0u);
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(ServiceAdminTest, StopRejectsNewSubmitsAndDrainsAccepted) {
  // Stop() is the shutdown half of the durability contract but must hold
  // without a WAL too: accepted batches drain to the engines, later
  // submits are rejected with kStopped instead of hanging or tearing.
  ServiceOptions sopts;
  sopts.num_shards = 3;
  ShardedGraph graph(256, std::make_unique<HashShardMap>(3), sopts);
  size_t accepted_edges = 0;
  for (int i = 0; i < 10; ++i) {
    std::vector<Edge> batch;
    for (VertexId v = 0; v < 50; ++v) {
      batch.push_back({v, static_cast<VertexId>((v + 51 * i + 1) % 256)});
    }
    ASSERT_EQ(graph.SubmitInsert(std::move(batch)), SubmitStatus::kOk);
    accepted_edges += 50;
  }
  graph.Stop();
  EXPECT_TRUE(graph.stopped());
  EXPECT_EQ(graph.SubmitInsert({{1, 2}}), SubmitStatus::kStopped);
  size_t applied = 7;
  EXPECT_EQ(graph.SubmitAndWait(ShardedGraph::UpdateKind::kDelete, {{0, 1}},
                                &applied),
            SubmitStatus::kStopped);
  EXPECT_EQ(applied, 0u);
  // Every pre-stop batch landed (all 500 distinct edges), nothing more.
  EXPECT_EQ(graph.num_edges(), accepted_edges);
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(ServiceAdminTest, WorkloadWriterStopsOnStoppedService) {
  // RunWorkload's writer reads the SubmitStatus: a batch the stopped
  // service rejects is neither counted nor logged (the log is
  // VerifyAgainstOracle's replay input, so it holds only applied batches),
  // and the writer issues nothing after it.
  const DatasetSpec spec = TestDataset();
  ServiceOptions sopts;
  sopts.num_shards = 2;
  ShardedGraph graph(VertexId{1} << spec.scale,
                     std::make_unique<HashShardMap>(2), sopts);
  Router router(graph);
  graph.Stop();

  WorkloadSpec wl;
  wl.ops = 8;
  wl.point_read_frac = 0.0;
  wl.update_frac = 1.0;
  wl.update_batch_size = 16;
  wl.updates = spec;
  ASSERT_EQ(wl.Validate(), "");
  WorkloadResult res = RunWorkload(router, wl);
  EXPECT_EQ(res.ops_issued, 1u);
  EXPECT_EQ(res.edges_submitted, 0u);
  EXPECT_EQ(res.update.count(), 0u);
  EXPECT_TRUE(res.update_log.empty());
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(ServiceAdminTest, DestructionDrainsPendingAsyncSubmits) {
  // Teardown with work still queued: the destructor must flush, join the
  // drainers, and release pins in order — no hang, no leak, no crash.
  for (int round = 0; round < 3; ++round) {
    ServiceOptions sopts;
    sopts.num_shards = 3;
    ShardedGraph graph(256, std::make_unique<HashShardMap>(3), sopts);
    for (int i = 0; i < 10; ++i) {
      std::vector<Edge> batch;
      for (VertexId v = 0; v < 50; ++v) {
        batch.push_back({v, static_cast<VertexId>((v + i + 1) % 256)});
      }
      graph.SubmitInsert(std::move(batch));
    }
    // Destructor runs here with queues plausibly non-empty.
  }
}

TEST(ServiceAdminTest, AggregateStatsSumsShards) {
  ServiceOptions sopts;
  sopts.num_shards = 4;
  ShardedGraph graph(64, std::make_unique<HashShardMap>(4), sopts);
  std::vector<Edge> batch;
  for (VertexId v = 0; v < 64; ++v) {
    batch.push_back({v, static_cast<VertexId>((v + 1) % 64)});
  }
  graph.SubmitAndWait(ShardedGraph::UpdateKind::kInsert, batch);
  CoreStats stats;
  graph.AggregateStats(&stats);
  // Every shard holds exactly one pinned read view, so the aggregated
  // snapshots_live gauge counts all four engines.
  EXPECT_EQ(stats.snapshots_live.load(), 4u);
  // And the aggregate is the per-engine sum, field by field.
  uint64_t cow_sum = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    cow_sum += graph.shard_engine(s).stats().cow_copies.load();
  }
  EXPECT_EQ(stats.cow_copies.load(), cow_sum);
}

}  // namespace
}  // namespace lsg
