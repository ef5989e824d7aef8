#include "src/testing/crash.h"

#include <algorithm>
#include <random>
#include <set>

#include "src/gen/lsgbin.h"

namespace lsg {
namespace {

uint64_t Key(const Edge& e) {
  return (uint64_t{e.src} << 32) | e.dst;
}

}  // namespace

CrashWorkload MakeCrashWorkload(uint64_t seed, VertexId initial_vertices,
                                size_t num_ops, size_t edges_per_batch) {
  CrashWorkload w;
  w.initial_vertices = initial_vertices;
  w.ops.reserve(num_ops);
  std::mt19937_64 rng(seed);
  VertexId vertices = initial_vertices;
  std::vector<Edge> inserted;  // delete candidates
  for (size_t i = 0; i < num_ops; ++i) {
    CrashOp op;
    const uint64_t roll = rng() % 100;
    if (roll < 15 && vertices < initial_vertices * 4) {
      op.kind = CrashOpKind::kAddVertices;
      op.add_count = static_cast<VertexId>(1 + rng() % 8);
      vertices += op.add_count;
    } else if (roll < 40 && !inserted.empty()) {
      op.kind = CrashOpKind::kDelete;
      for (size_t j = 0; j < edges_per_batch; ++j) {
        op.edges.push_back(inserted[rng() % inserted.size()]);
      }
    } else {
      op.kind = CrashOpKind::kInsert;
      for (size_t j = 0; j < edges_per_batch; ++j) {
        Edge e{static_cast<VertexId>(rng() % vertices),
               static_cast<VertexId>(rng() % vertices)};
        op.edges.push_back(e);
        inserted.push_back(e);
      }
    }
    w.ops.push_back(std::move(op));
  }
  return w;
}

size_t RunCrashWorkload(ShardedGraph& graph, const CrashWorkload& workload,
                        const std::function<void(size_t)>& ack,
                        size_t checkpoint_every) {
  for (size_t i = 0; i < workload.ops.size(); ++i) {
    const CrashOp& op = workload.ops[i];
    if (op.kind == CrashOpKind::kAddVertices) {
      graph.AddVertices(op.add_count);  // returning = durable (quiesced op)
    } else {
      SubmitStatus status = graph.SubmitAndWait(
          op.kind == CrashOpKind::kInsert ? ShardedGraph::UpdateKind::kInsert
                                          : ShardedGraph::UpdateKind::kDelete,
          op.edges);
      if (status != SubmitStatus::kOk) {
        return i;
      }
    }
    if (ack) {
      ack(i);
    }
    if (checkpoint_every != 0 && (i + 1) % checkpoint_every == 0) {
      graph.Checkpoint();
    }
  }
  return workload.ops.size();
}

std::string VerifyRecovered(const ShardedGraph& graph,
                            const CrashWorkload& workload, size_t acked_ops) {
  const size_t total = workload.ops.size();
  const uint32_t num_shards = graph.num_shards();
  const ShardMap& map = graph.shard_map();
  if (acked_ops > total) {
    return "acked_ops exceeds workload size";
  }

  // What recovery actually produced, per shard, as sorted key vectors.
  std::vector<std::vector<uint64_t>> recovered(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    for (const Edge& e : DumpEdges(graph.shard_engine(s))) {
      recovered[s].push_back(Key(e));  // DumpEdges is already sorted
    }
  }

  // Walk the oracle forward; from the acknowledged prefix on, each shard
  // may match at any boundary.
  std::vector<std::set<uint64_t>> oracle(num_shards);
  std::vector<bool> matched(num_shards, false);
  std::vector<size_t> matched_at(num_shards, 0);
  VertexId vertices = workload.initial_vertices;
  VertexId vertices_at_acked = workload.initial_vertices;
  for (size_t k = 0; k <= total; ++k) {
    if (k == acked_ops) {
      vertices_at_acked = vertices;
    }
    if (k >= acked_ops) {
      for (uint32_t s = 0; s < num_shards; ++s) {
        if (matched[s]) {
          continue;
        }
        if (oracle[s].size() == recovered[s].size() &&
            std::equal(oracle[s].begin(), oracle[s].end(),
                       recovered[s].begin())) {
          matched[s] = true;
          matched_at[s] = k;
        }
      }
    }
    if (k == total) {
      break;
    }
    const CrashOp& op = workload.ops[k];
    switch (op.kind) {
      case CrashOpKind::kInsert:
        for (const Edge& e : op.edges) {
          oracle[map.ShardOf(e.src)].insert(Key(e));
        }
        break;
      case CrashOpKind::kDelete:
        for (const Edge& e : op.edges) {
          oracle[map.ShardOf(e.src)].erase(Key(e));
        }
        break;
      case CrashOpKind::kAddVertices:
        vertices += op.add_count;
        break;
    }
  }

  for (uint32_t s = 0; s < num_shards; ++s) {
    if (!matched[s]) {
      return "shard " + std::to_string(s) + " matches no prefix in [" +
             std::to_string(acked_ops) + ", " + std::to_string(total) +
             "]: recovered " + std::to_string(recovered[s].size()) +
             " edges vs " + std::to_string(oracle[s].size()) +
             " at the full prefix";
    }
  }
  if (graph.num_vertices() < vertices_at_acked ||
      graph.num_vertices() > vertices) {
    return "recovered vertex count " + std::to_string(graph.num_vertices()) +
           " outside acknowledged range [" +
           std::to_string(vertices_at_acked) + ", " +
           std::to_string(vertices) + "]";
  }
  return "";
}

}  // namespace lsg
