#include "src/service/workload.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

#include "src/util/prng.h"
#include "src/util/timer.h"

namespace lsg {

namespace {

// Open-loop pacing: op i is due at start + i/rate; never sleeps when
// behind schedule (overload surfaces as latency, not reduced rate).
// A raised stop flag abandons the wait so shutdown is not delayed by the
// pacing schedule.
void PaceTo(const Timer& wall, double rate, uint64_t i,
            const std::atomic<bool>* stop) {
  if (rate <= 0.0) {
    return;
  }
  const double due = static_cast<double>(i) / rate;
  while (wall.Seconds() < due) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool Stopped(const WorkloadSpec& spec) {
  return spec.stop != nullptr && spec.stop->load(std::memory_order_relaxed);
}

// Serial truncated BFS on the single-engine oracle, same set semantics as
// Router::KHop (distinct vertices within k hops, source included).
size_t OracleKHopReached(const LSGraph& g, VertexId source, uint32_t k) {
  if (source >= g.num_vertices()) {
    return 0;
  }
  std::vector<uint8_t> visited(g.num_vertices(), 0);
  visited[source] = 1;
  std::vector<VertexId> frontier{source};
  size_t reached = 1;
  for (uint32_t hop = 0; hop < k && !frontier.empty(); ++hop) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      g.map_neighbors(v, [&](VertexId u) {
        if (visited[u] == 0) {
          visited[u] = 1;
          next.push_back(u);
        }
      });
    }
    reached += next.size();
    frontier = std::move(next);
  }
  return reached;
}

struct ReaderStats {
  LatencyHistogram point_read;
  LatencyHistogram khop;
  uint64_t checksum = 0;
};

}  // namespace

std::string WorkloadSpec::Validate() const {
  if (ops == 0) {
    return "ops must be >= 1";
  }
  if (point_read_frac < 0.0 || update_frac < 0.0 ||
      point_read_frac + update_frac > 1.0) {
    return "point_read_frac/update_frac must be >= 0 and sum to <= 1";
  }
  if (update_batch_size == 0) {
    return "update_batch_size must be >= 1";
  }
  if (khop_depth > 32) {
    return "khop_depth must be <= 32";
  }
  if (reader_threads == 0 || reader_threads > 256) {
    return "reader_threads must be in [1, 256]";
  }
  if (target_qps < 0.0) {
    return "target_qps must be >= 0";
  }
  return "";
}

WorkloadResult RunWorkload(Router& router, const WorkloadSpec& spec) {
  WorkloadResult result;
  ShardedGraph& graph = router.graph();
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return result;
  }
  const uint64_t updates_total =
      std::min<uint64_t>(spec.ops,
                         static_cast<uint64_t>(
                             static_cast<double>(spec.ops) * spec.update_frac +
                             0.5));
  const uint64_t reads_total = spec.ops - updates_total;
  // Probability an individual reader op is a k-hop (vs a point read).
  const double read_share = 1.0 - spec.update_frac;
  const double khop_p =
      read_share > 0.0
          ? std::clamp((read_share - spec.point_read_frac) / read_share, 0.0,
                       1.0)
          : 0.0;

  std::vector<ReaderStats> reader_stats(spec.reader_threads);
  std::atomic<uint64_t> issued{0};
  Timer wall;

  std::thread writer([&] {
    const double rate =
        spec.target_qps * static_cast<double>(updates_total) /
        static_cast<double>(spec.ops);
    for (uint64_t t = 0; t < updates_total && !Stopped(spec); ++t) {
      issued.fetch_add(1, std::memory_order_relaxed);
      const bool is_delete = (t % 4 == 3);
      const ShardedGraph::UpdateKind kind =
          is_delete ? ShardedGraph::UpdateKind::kDelete
                    : ShardedGraph::UpdateKind::kInsert;
      // Deletes target the batch inserted three ops earlier (trials that
      // are == 3 mod 4 never generate inserts, so t - 3 always names one).
      std::vector<Edge> batch = BuildUpdateBatch(
          spec.updates, spec.update_batch_size, is_delete ? t - 3 : t);
      PaceTo(wall, rate, t, spec.stop);
      Timer op;
      size_t applied = 0;
      // A stopped service rejects this batch and every later one: stop
      // issuing, and keep the rejected batch out of the counts and the log.
      if (graph.SubmitAndWait(kind, batch, &applied) ==
          SubmitStatus::kStopped) {
        break;
      }
      result.update.RecordSeconds(op.Seconds());
      result.edges_submitted += batch.size();
      result.edges_applied += applied;
      if (spec.keep_update_log) {
        result.update_log.emplace_back(kind, std::move(batch));
      }
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(spec.reader_threads);
  for (uint32_t r = 0; r < spec.reader_threads; ++r) {
    readers.emplace_back([&, r] {
      ReaderStats& stats = reader_stats[r];
      std::mt19937_64 rng(MixSeed(spec.seed, 0x5eed0000 + r));
      std::uniform_real_distribution<double> u01(0.0, 1.0);
      const uint64_t my_ops = reads_total / spec.reader_threads +
                              (r < reads_total % spec.reader_threads ? 1 : 0);
      const double rate = spec.target_qps * static_cast<double>(my_ops) /
                          static_cast<double>(spec.ops);
      for (uint64_t i = 0; i < my_ops && !Stopped(spec); ++i) {
        issued.fetch_add(1, std::memory_order_relaxed);
        PaceTo(wall, rate, i, spec.stop);
        const VertexId v = static_cast<VertexId>(rng() % n);
        if (u01(rng) < khop_p) {
          Timer op;
          Router::KHopResult kr = router.KHop(v, spec.khop_depth);
          stats.khop.RecordSeconds(op.Seconds());
          stats.checksum += kr.reached;
          continue;
        }
        switch (rng() % 3) {
          case 0: {
            const VertexId w = static_cast<VertexId>(rng() % n);
            Timer op;
            const bool has = router.HasEdge(v, w);
            stats.point_read.RecordSeconds(op.Seconds());
            stats.checksum += has ? 1 : 0;
            break;
          }
          case 1: {
            Timer op;
            const size_t d = router.Degree(v);
            stats.point_read.RecordSeconds(op.Seconds());
            stats.checksum += d;
            break;
          }
          default: {
            Timer op;
            const std::vector<VertexId> nb = router.Neighbors(v);
            stats.point_read.RecordSeconds(op.Seconds());
            stats.checksum += nb.size();
            break;
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) {
    t.join();
  }
  graph.Flush();
  result.wall_seconds = wall.Seconds();
  result.ops_issued = issued.load(std::memory_order_relaxed);
  for (ReaderStats& stats : reader_stats) {
    result.point_read.Merge(stats.point_read);
    result.khop.Merge(stats.khop);
    result.read_checksum += stats.checksum;
  }
  return result;
}

std::string VerifyAgainstOracle(
    Router& router, std::span<const Edge> base_edges,
    const std::vector<std::pair<ShardedGraph::UpdateKind, std::vector<Edge>>>&
        update_log,
    const Options& engine_options, uint64_t seed) {
  ShardedGraph& graph = router.graph();
  graph.Flush();
  const VertexId n = graph.num_vertices();

  LSGraph oracle(n, engine_options);
  oracle.BuildFromEdges(std::vector<Edge>(base_edges.begin(),
                                          base_edges.end()));
  for (const auto& [kind, batch] : update_log) {
    if (kind == ShardedGraph::UpdateKind::kInsert) {
      oracle.InsertBatch(batch);
    } else {
      oracle.DeleteBatch(batch);
    }
  }

  if (graph.num_edges() != oracle.num_edges()) {
    return "num_edges mismatch: sharded=" + std::to_string(graph.num_edges()) +
           " oracle=" + std::to_string(oracle.num_edges());
  }
  for (VertexId v = 0; v < n; ++v) {
    if (router.Degree(v) != oracle.degree(v)) {
      return "degree mismatch at v=" + std::to_string(v) +
             ": sharded=" + std::to_string(router.Degree(v)) +
             " oracle=" + std::to_string(oracle.degree(v));
    }
  }
  const VertexId step = std::max<VertexId>(1, n / 4096);
  for (VertexId v = 0; v < n; v += step) {
    std::vector<VertexId> got = router.Neighbors(v);
    std::vector<VertexId> want;
    oracle.FillNeighbors(v, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      return "neighbor list mismatch at v=" + std::to_string(v);
    }
  }
  std::mt19937_64 rng(MixSeed(seed, 0x0bac1e));
  for (int i = 0; i < 512; ++i) {
    const VertexId src = static_cast<VertexId>(rng() % n);
    const VertexId dst = static_cast<VertexId>(rng() % n);
    if (router.HasEdge(src, dst) != oracle.HasEdge(src, dst)) {
      return "HasEdge mismatch at (" + std::to_string(src) + ", " +
             std::to_string(dst) + ")";
    }
  }
  for (int i = 0; i < 8; ++i) {
    const VertexId src = static_cast<VertexId>(rng() % n);
    const size_t got = router.KHop(src, 2).reached;
    const size_t want = OracleKHopReached(oracle, src, 2);
    if (got != want) {
      return "KHop(2) reach mismatch from " + std::to_string(src) +
             ": sharded=" + std::to_string(got) +
             " oracle=" + std::to_string(want);
    }
  }
  return "";
}

}  // namespace lsg
