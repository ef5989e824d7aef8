// Vertex -> shard placement for the service layer (DESIGN.md §13).
//
// The engine layer stores adjacency; the service layer decides which engine
// instance owns which vertex. A ShardMap is that decision, pluggable so the
// placement ladder from SNIPPETS.md snippet 3 (hash -> HDRF/Fennel style
// edge-cut placement) can be climbed without touching the router or the
// sharded graph: every policy reduces to a total function
// ShardOf: VertexId -> [0, num_shards), frozen before serving starts.
//
// Adjacency is source-partitioned: shard s owns every edge (u, v) with
// ShardOf(u) == s, so point reads and update groups for a vertex route to
// exactly one shard and batch apply never crosses shards. Edge-cut-aware
// policies (HDRF/Fennel) fit the same interface by observing the edge
// stream up front and emitting a per-vertex table (TableShardMap below;
// BuildFennelShardTable is the seed implementation).
#ifndef SRC_SERVICE_SHARD_MAP_H_
#define SRC_SERVICE_SHARD_MAP_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/graph_types.h"

namespace lsg {

class ShardMap {
 public:
  virtual ~ShardMap() = default;

  virtual uint32_t num_shards() const = 0;

  // Total, deterministic, and frozen once serving starts: the router, the
  // partitioned loader, and every test rely on two calls agreeing.
  virtual uint32_t ShardOf(VertexId v) const = 0;

  virtual std::string name() const = 0;
};

// Multiplicative (Fibonacci) hash then modulo: spreads the low-id hubs that
// dominate rMat/social graphs across shards instead of clustering them the
// way plain `v % shards` would under locality-correlated ids.
class HashShardMap final : public ShardMap {
 public:
  explicit HashShardMap(uint32_t num_shards) : num_shards_(num_shards) {}

  uint32_t num_shards() const override { return num_shards_; }

  uint32_t ShardOf(VertexId v) const override {
    uint64_t h = (static_cast<uint64_t>(v) + 1) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
    return static_cast<uint32_t>(h % num_shards_);
  }

  std::string name() const override { return "hash"; }

 private:
  uint32_t num_shards_;
};

// Explicit per-vertex assignment — the drop-in point for edge-cut-aware
// placement: any HDRF/Fennel-style pass reduces to the table it emits.
// Vertices beyond the table (added after placement froze) fall back to the
// hash policy so the map stays total as the graph grows.
class TableShardMap final : public ShardMap {
 public:
  TableShardMap(uint32_t num_shards, std::vector<uint32_t> table,
                std::string name = "table")
      : num_shards_(num_shards),
        table_(std::move(table)),
        fallback_(num_shards),
        name_(std::move(name)) {}

  uint32_t num_shards() const override { return num_shards_; }

  uint32_t ShardOf(VertexId v) const override {
    if (v < table_.size()) {
      uint32_t s = table_[v];
      return s < num_shards_ ? s : fallback_.ShardOf(v);
    }
    return fallback_.ShardOf(v);
  }

  std::string name() const override { return name_; }

  const std::vector<uint32_t>& table() const { return table_; }

 private:
  uint32_t num_shards_;
  std::vector<uint32_t> table_;
  HashShardMap fallback_;
  std::string name_;
};

// One-pass Fennel-style greedy placement over an edge list: each vertex
// goes to the shard maximizing (neighbors already placed there) minus a
// load penalty gamma * (shard size / ideal size). Deterministic for a given
// edge order. This is the seed rung of the smarter-placement ladder — HDRF
// or multi-pass refinement slot in by producing the same table shape.
inline std::vector<uint32_t> BuildFennelShardTable(
    VertexId num_vertices, std::span<const Edge> edges, uint32_t num_shards,
    double gamma = 1.5) {
  std::vector<uint32_t> table(num_vertices, num_shards);  // num_shards = unplaced
  if (num_shards == 0) {
    return table;
  }
  // CSR offsets so each vertex's neighbors scan once (edges must be sorted
  // by src, the BuildDatasetEdges/PrepareBatch contract).
  std::vector<size_t> offset(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    if (e.src < num_vertices) {
      ++offset[e.src + 1];
    }
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    offset[v + 1] += offset[v];
  }
  std::vector<uint64_t> load(num_shards, 0);
  const double ideal =
      static_cast<double>(num_vertices) / static_cast<double>(num_shards);
  std::vector<double> score(num_shards);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (uint32_t s = 0; s < num_shards; ++s) {
      score[s] = -gamma * static_cast<double>(load[s]) / (ideal + 1.0);
    }
    for (size_t i = offset[v]; i < offset[v + 1]; ++i) {
      VertexId u = edges[i].dst;
      if (u < num_vertices && table[u] < num_shards) {
        score[table[u]] += 1.0;
      }
    }
    uint32_t best = 0;
    for (uint32_t s = 1; s < num_shards; ++s) {
      if (score[s] > score[best]) {
        best = s;
      }
    }
    table[v] = best;
    ++load[best];
  }
  return table;
}

}  // namespace lsg

#endif  // SRC_SERVICE_SHARD_MAP_H_
