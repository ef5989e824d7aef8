// Durability benchmark (DESIGN.md §14): the cost of crash safety and the
// speed of coming back from it.
//
//   1. Ingest the same insert-batch stream into a ShardedGraph with the WAL
//      off and with the WAL on (group commit, the default): the throughput
//      ratio is the durability tax. The acceptance target is WAL-on within
//      25% of WAL-off at full scale.
//   2. Tear the WAL-on service down, recover a fresh instance from the log
//      alone, and time the replay. At full scale the log holds 1M+ edges.
//   3. Checkpoint, recover again (checkpoint + empty tail): the steady-state
//      restart path.
//
// Every recovery is equality-checked shard-by-shard against the WAL-off
// twin (same shard map, same batches => identical expected adjacency); any
// divergence aborts — a fast recovery to the wrong graph is not a result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/gen/lsgbin.h"
#include "src/service/shard_map.h"
#include "src/service/sharded_graph.h"

namespace lsg {
namespace {

struct DurabilityTier {
  DatasetSpec spec;
  uint32_t shards;
  uint64_t batches;
  uint64_t batch_size;
};

DurabilityTier TierForScale() {
  switch (bench::BenchScale()) {
    case bench::Scale::kTiny:
      return {{"DUR", 12, 8.0, 91}, 2, 50, 2000};       // 100k logged edges
    case bench::Scale::kSmall:
      return {{"DUR", 15, 16.0, 91}, 4, 100, 5000};     // 500k
    case bench::Scale::kFull:
      return {{"DUR", 18, 16.0, 91}, 8, 125, 10000};    // 1.25M
  }
  return {{"DUR", 12, 8.0, 91}, 2, 50, 2000};
}

ServiceOptions MakeOptions(const DurabilityTier& tier,
                           const std::string& wal_dir) {
  ServiceOptions sopts;
  sopts.num_shards = tier.shards;
  sopts.durability.dir = wal_dir;  // "" = durability off
  sopts.durability.fsync = FsyncPolicy::kGroup;
  sopts.durability.checkpoint_wal_bytes = 0;  // manual: keep the full log
  return sopts;
}

// Pushes every batch through the acknowledged ingest path; returns edges/s.
double IngestAll(ShardedGraph& graph, const DurabilityTier& tier,
                 uint64_t* edges_out) {
  Timer t;
  uint64_t edges = 0;
  for (uint64_t b = 0; b < tier.batches; ++b) {
    std::vector<Edge> batch =
        BuildUpdateBatch(tier.spec, tier.batch_size, b);
    edges += batch.size();
    graph.SubmitAndWait(ShardedGraph::UpdateKind::kInsert, std::move(batch));
  }
  const double secs = t.Seconds();
  *edges_out = edges;
  return secs > 0 ? static_cast<double>(edges) / secs : 0.0;
}

void DemandEquality(ShardedGraph& recovered, ShardedGraph& twin,
                    const char* what) {
  if (recovered.num_edges() != twin.num_edges() ||
      recovered.num_vertices() != twin.num_vertices()) {
    std::fprintf(stderr,
                 "bench_durability: %s diverges: %llu edges vs %llu\n", what,
                 static_cast<unsigned long long>(recovered.num_edges()),
                 static_cast<unsigned long long>(twin.num_edges()));
    std::abort();
  }
  for (uint32_t s = 0; s < recovered.num_shards(); ++s) {
    if (DumpEdges(recovered.shard_engine(s)) !=
        DumpEdges(twin.shard_engine(s))) {
      std::fprintf(stderr,
                   "bench_durability: %s diverges in shard %u adjacency\n",
                   what, s);
      std::abort();
    }
  }
  if (!recovered.CheckInvariants()) {
    std::fprintf(stderr, "bench_durability: %s fails invariants\n", what);
    std::abort();
  }
}

int Run() {
  bench::BenchReporter reporter("durability");
  const DurabilityTier tier = TierForScale();
  const VertexId n = bench::NumVerticesFor(tier.spec);
  const int64_t batch = static_cast<int64_t>(tier.batch_size);
  const std::string params = "shards=" + std::to_string(tier.shards) +
                             " fsync=group";

  const char* tmp = std::getenv("TMPDIR");
  const std::string wal_dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                              "/bench_durability_" +
                              std::to_string(::getpid());
  const std::string cleanup = "rm -rf '" + wal_dir + "'";
  [[maybe_unused]] int rc = std::system(cleanup.c_str());

  std::printf("bench_durability: scale=%s graph=2^%d vertices, shards=%u, "
              "%llu batches x %llu edges\n",
              bench::BenchScaleName(), tier.spec.scale, tier.shards,
              static_cast<unsigned long long>(tier.batches),
              static_cast<unsigned long long>(tier.batch_size));

  std::vector<Edge> base = BuildDatasetEdges(tier.spec);

  // WAL-off twin: the throughput baseline AND the equality oracle.
  ShardedGraph twin(n, std::make_unique<HashShardMap>(tier.shards),
                    MakeOptions(tier, ""));
  twin.BuildFromEdges(base);
  uint64_t edges_off = 0;
  const double rate_off = IngestAll(twin, tier, &edges_off);
  std::printf("  ingest wal-off   %10.0f edges/s (%llu edges)\n", rate_off,
              static_cast<unsigned long long>(edges_off));
  reporter.Add({tier.spec.name, "LSGraph", "ingest_wal_off", rate_off,
                "edges/s", batch, static_cast<int64_t>(tier.shards), params});

  // WAL-on: identical stream, group-committed log. BuildFromEdges writes
  // the base checkpoint; the batches land in the WAL.
  double rate_on = 0.0;
  {
    ShardedGraph graph(n, std::make_unique<HashShardMap>(tier.shards),
                       MakeOptions(tier, wal_dir));
    graph.BuildFromEdges(base);
    uint64_t edges_on = 0;
    rate_on = IngestAll(graph, tier, &edges_on);
    std::printf("  ingest wal-on    %10.0f edges/s\n", rate_on);
    reporter.Add({tier.spec.name, "LSGraph", "ingest_wal_on", rate_on,
                  "edges/s", batch, static_cast<int64_t>(tier.shards),
                  params});
    graph.Stop();  // drain + flush; destructor tears down cleanly
  }
  if (rate_off > 0) {
    const double tax = 100.0 * (1.0 - rate_on / rate_off);
    std::printf("  durability tax   %9.1f%% (acceptance: <= 25%% at full "
                "scale)\n", tax);
    reporter.Add({tier.spec.name, "LSGraph", "wal_overhead", tax, "%", batch,
                  static_cast<int64_t>(tier.shards), params});
  }

  // Recovery from the log: base checkpoint + every batch replayed.
  {
    ShardedGraph graph(n, std::make_unique<HashShardMap>(tier.shards),
                       MakeOptions(tier, wal_dir));
    Timer t;
    RecoveryInfo info = graph.Recover();
    const double secs = t.Seconds();
    const double replay_rate =
        secs > 0 ? static_cast<double>(info.edges_replayed) / secs : 0.0;
    std::printf("  recover wal-tail %10.0f edges/s (%llu records, %llu "
                "edges, %.3f s)\n",
                replay_rate,
                static_cast<unsigned long long>(info.wal_records_replayed),
                static_cast<unsigned long long>(info.edges_replayed), secs);
    reporter.Add({tier.spec.name, "LSGraph", "recover_replay", replay_rate,
                  "edges/s", batch, static_cast<int64_t>(tier.shards),
                  params});
    reporter.Add({tier.spec.name, "LSGraph", "recover_seconds", secs, "s",
                  batch, static_cast<int64_t>(tier.shards), params});
    DemandEquality(graph, twin, "wal-tail recovery");

    // Fold everything into a checkpoint for the steady-state restart.
    graph.Checkpoint();
  }

  // Recovery from the checkpoint (empty WAL tail).
  {
    ShardedGraph graph(n, std::make_unique<HashShardMap>(tier.shards),
                       MakeOptions(tier, wal_dir));
    Timer t;
    RecoveryInfo info = graph.Recover();
    const double secs = t.Seconds();
    std::printf("  recover ckpt     %10.3f s (%u checkpoints, %llu wal "
                "records)\n",
                secs, info.checkpoints_loaded,
                static_cast<unsigned long long>(info.wal_records_replayed));
    reporter.Add({tier.spec.name, "LSGraph", "recover_ckpt_seconds", secs,
                  "s", batch, static_cast<int64_t>(tier.shards), params});
    DemandEquality(graph, twin, "checkpoint recovery");
  }
  std::printf("  equality: OK (recovered adjacency matches wal-off twin)\n");

  rc = std::system(cleanup.c_str());
  return 0;
}

}  // namespace
}  // namespace lsg

int main() { return lsg::Run(); }
