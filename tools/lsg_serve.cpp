// lsg_serve: command-line workload driver for the sharded serving layer.
//
// Builds a ShardedGraph (from a generated rMat dataset or a .lsgbin file),
// fronts it with a Router, replays a mixed point-read / update-batch /
// k-hop workload at a target QPS, and prints p50/p99/p999 latency per op
// class plus achieved throughput. With --verify, replays the identical
// update log into a single-engine oracle and fails on any divergence.
//
//   lsg_serve --shards=4 --ops=20000 --qps=10000 --readers=2 --verify
//   lsg_serve --graph=web.lsgbin --shards=8 --ops=100000
//   lsg_serve --durability-dir=/data/wal --fsync=group --ops=100000
//
// SIGTERM/SIGINT wind the run down gracefully: intake stops at the next op
// boundary, queues drain, the WAL flushes, and (with durability on) a
// final checkpoint freezes the served state — then exit 0. A second signal
// during the drain still exits through the same path (the flag is sticky).
//
// Exit codes: 0 ok (including graceful signal stop), 1 divergence or
// invariant failure, 2 usage error.
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/gen/datasets.h"
#include "src/gen/lsgbin.h"
#include "src/service/router.h"
#include "src/service/shard_map.h"
#include "src/service/sharded_graph.h"
#include "src/service/workload.h"
#include "src/util/parse.h"

namespace lsg {
namespace {

// Signal handlers may only touch lock-free state; the workload threads poll
// this between ops.
std::atomic<bool> g_stop{false};

void OnStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void InstallStopHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnStopSignal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

struct Args {
  uint32_t shards = 4;
  int scale = 14;            // 2^scale vertices when generating
  double degree = 8.0;       // average degree when generating
  std::string graph_path;    // non-empty: load .lsgbin instead of generating
  uint64_t ops = 20000;
  double qps = 0.0;          // 0 = closed loop
  uint64_t batch = 1000;
  double read_frac = 0.60;
  double update_frac = 0.25;
  uint32_t khop_depth = 2;
  uint32_t readers = 2;
  size_t engine_threads = 0;  // 0 = hardware width, striped across shards
  uint64_t seed = 42;
  bool compressed = false;
  bool verify = false;
  std::string durability_dir;  // non-empty: WAL + checkpoints (DESIGN.md §14)
  std::string fsync = "group";
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: lsg_serve [--shards=N] [--scale=S] [--degree=D]\n"
      "                 [--graph=FILE.lsgbin] [--ops=N] [--qps=Q]\n"
      "                 [--batch=N] [--read-frac=F] [--update-frac=F]\n"
      "                 [--khop-depth=K] [--readers=N] [--threads=N]\n"
      "                 [--seed=N] [--compressed] [--verify]\n"
      "                 [--durability-dir=DIR]\n"
      "                 [--fsync=group|percommit|interval]\n");
  return 2;
}

int Run(const Args& args) {
  // Base edges: loaded or generated. The update stream always comes from
  // the rMat generator at the graph's scale so updates hit resident ids.
  DatasetSpec spec{"serve", args.scale, args.degree, args.seed};
  std::vector<Edge> base;
  VertexId n = 0;
  if (!args.graph_path.empty()) {
    LoadedGraph g = LoadLsgbin(args.graph_path);
    base = std::move(g.edges);
    n = g.num_vertices;
    // Update generation needs a scale covering the loaded id space.
    int s = 0;
    while ((VertexId{1} << s) < n && s < 31) {
      ++s;
    }
    spec.scale = s;
  } else {
    base = BuildDatasetEdges(spec);
    n = VertexId{1} << args.scale;
  }
  std::printf("lsg_serve: %u vertices, %zu base edges, %u shards (hash)\n",
              n, base.size(), args.shards);

  ServiceOptions sopts;
  sopts.num_shards = args.shards;
  sopts.engine_threads = args.engine_threads;
  sopts.engine.compress_leaves = args.compressed;
  sopts.durability.dir = args.durability_dir;
  if (args.fsync == "group") {
    sopts.durability.fsync = FsyncPolicy::kGroup;
  } else if (args.fsync == "percommit") {
    sopts.durability.fsync = FsyncPolicy::kPerCommit;
  } else if (args.fsync == "interval") {
    sopts.durability.fsync = FsyncPolicy::kInterval;
  } else {
    std::fprintf(stderr, "lsg_serve: unknown --fsync=%s\n",
                 args.fsync.c_str());
    return 2;
  }
  if (std::string err = sopts.Validate(); !err.empty()) {
    std::fprintf(stderr, "lsg_serve: bad options: %s\n", err.c_str());
    return 2;
  }
  ShardedGraph graph(n, std::make_unique<HashShardMap>(args.shards), sopts);
  bool recovered = false;
  if (sopts.durability.enabled()) {
    RecoveryInfo rec = graph.Recover();
    recovered =
        rec.checkpoints_loaded != 0 || rec.wal_records_replayed != 0;
    if (recovered) {
      std::printf(
          "lsg_serve: recovered %u checkpoint(s), %llu wal record(s), "
          "%llu edge(s) replayed (%u damaged checkpoint(s) skipped, "
          "%llu torn byte(s) truncated)\n",
          rec.checkpoints_loaded,
          static_cast<unsigned long long>(rec.wal_records_replayed),
          static_cast<unsigned long long>(rec.edges_replayed),
          rec.checkpoints_skipped,
          static_cast<unsigned long long>(rec.torn_bytes_truncated));
    }
  }
  if (!recovered) {
    // A recovered directory already holds base + every durable update;
    // rebuilding the base over it would double-apply history.
    graph.BuildFromEdges(base);
  }
  Router router(graph);
  InstallStopHandlers();

  WorkloadSpec wl;
  wl.ops = args.ops;
  wl.point_read_frac = args.read_frac;
  wl.update_frac = args.update_frac;
  wl.update_batch_size = args.batch;
  wl.khop_depth = args.khop_depth;
  wl.target_qps = args.qps;
  wl.reader_threads = args.readers;
  wl.seed = args.seed;
  wl.updates = spec;
  wl.keep_update_log = args.verify;
  wl.stop = &g_stop;
  if (std::string err = wl.Validate(); !err.empty()) {
    std::fprintf(stderr, "lsg_serve: bad workload: %s\n", err.c_str());
    return 2;
  }

  WorkloadResult res = RunWorkload(router, wl);

  if (g_stop.load(std::memory_order_relaxed)) {
    // Graceful wind-down: RunWorkload already stopped intake at an op
    // boundary and drained the queues (Flush). Freeze what was served.
    graph.Stop();
    if (sopts.durability.enabled()) {
      graph.Checkpoint();
    }
    std::printf(
        "lsg_serve: stopped on signal after %llu ops; wal flushed%s\n",
        static_cast<unsigned long long>(res.ops_issued),
        sopts.durability.enabled() ? ", final checkpoint written" : "");
    return 0;
  }

  std::printf("%llu ops in %.3f s -> %.0f ops/s (target %s)\n",
              static_cast<unsigned long long>(res.ops_issued),
              res.wall_seconds, res.achieved_qps(),
              args.qps > 0 ? std::to_string(args.qps).c_str() : "unpaced");
  struct {
    const char* name;
    const LatencyHistogram* h;
  } classes[] = {{"point_read", &res.point_read},
                 {"update", &res.update},
                 {"khop", &res.khop}};
  std::printf("%-11s %10s %12s %12s %12s %12s\n", "op", "count", "p50(us)",
              "p99(us)", "p999(us)", "max(us)");
  for (const auto& c : classes) {
    std::printf("%-11s %10llu %12.1f %12.1f %12.1f %12.1f\n", c.name,
                static_cast<unsigned long long>(c.h->count()),
                c.h->PercentileSeconds(0.50) * 1e6,
                c.h->PercentileSeconds(0.99) * 1e6,
                c.h->PercentileSeconds(0.999) * 1e6,
                static_cast<double>(c.h->max_nanos()) * 1e-3);
  }
  std::printf("ingest: %llu edges submitted, %llu applied\n",
              static_cast<unsigned long long>(res.edges_submitted),
              static_cast<unsigned long long>(res.edges_applied));

  if (args.verify) {
    std::string divergence = VerifyAgainstOracle(router, base, res.update_log,
                                                 sopts.engine, args.seed);
    if (!divergence.empty()) {
      std::fprintf(stderr, "lsg_serve: DIVERGENCE vs single-engine oracle: %s\n",
                   divergence.c_str());
      return 1;
    }
    if (!graph.CheckInvariants()) {
      std::fprintf(stderr, "lsg_serve: invariant check failed\n");
      return 1;
    }
    std::printf("verify: OK (oracle-equivalent, invariants hold)\n");
  }
  if (sopts.durability.enabled()) {
    // Fold the whole run into one checkpoint so a restart replays no WAL.
    graph.Checkpoint();
  }
  return 0;
}

}  // namespace
}  // namespace lsg

int main(int argc, char** argv) {
  lsg::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (lsg::ParseFlag(argv[i], "--shards", &v)) {
      args.shards = lsg::ParseFlagValue<uint32_t>("--shards", v);
    } else if (lsg::ParseFlag(argv[i], "--scale", &v)) {
      args.scale = lsg::ParseFlagValue<int>("--scale", v);
    } else if (lsg::ParseFlag(argv[i], "--degree", &v)) {
      args.degree = lsg::ParseFlagValue<double>("--degree", v);
    } else if (lsg::ParseFlag(argv[i], "--graph", &v)) {
      args.graph_path = v;
    } else if (lsg::ParseFlag(argv[i], "--ops", &v)) {
      args.ops = lsg::ParseFlagValue<uint64_t>("--ops", v);
    } else if (lsg::ParseFlag(argv[i], "--qps", &v)) {
      args.qps = lsg::ParseFlagValue<double>("--qps", v);
    } else if (lsg::ParseFlag(argv[i], "--batch", &v)) {
      args.batch = lsg::ParseFlagValue<uint64_t>("--batch", v);
    } else if (lsg::ParseFlag(argv[i], "--read-frac", &v)) {
      args.read_frac = lsg::ParseFlagValue<double>("--read-frac", v);
    } else if (lsg::ParseFlag(argv[i], "--update-frac", &v)) {
      args.update_frac = lsg::ParseFlagValue<double>("--update-frac", v);
    } else if (lsg::ParseFlag(argv[i], "--khop-depth", &v)) {
      args.khop_depth = lsg::ParseFlagValue<uint32_t>("--khop-depth", v);
    } else if (lsg::ParseFlag(argv[i], "--readers", &v)) {
      args.readers = lsg::ParseFlagValue<uint32_t>("--readers", v);
    } else if (lsg::ParseFlag(argv[i], "--threads", &v)) {
      args.engine_threads = lsg::ParseFlagValue<size_t>("--threads", v);
    } else if (lsg::ParseFlag(argv[i], "--seed", &v)) {
      args.seed = lsg::ParseFlagValue<uint64_t>("--seed", v);
    } else if (lsg::ParseFlag(argv[i], "--durability-dir", &v)) {
      args.durability_dir = v;
    } else if (lsg::ParseFlag(argv[i], "--fsync", &v)) {
      args.fsync = v;
    } else if (std::strcmp(argv[i], "--compressed") == 0) {
      args.compressed = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      args.verify = true;
    } else {
      return lsg::Usage();
    }
  }
  return lsg::Run(args);
}
