// Vertex -> shard placement for the service layer (DESIGN.md §13).
//
// The engine layer stores adjacency; the service layer decides which engine
// instance owns which vertex. A ShardMap is that decision: a total function
// ShardOf: VertexId -> [0, num_shards), frozen before serving starts.
//
// Adjacency is source-partitioned: shard s owns every edge (u, v) with
// ShardOf(u) == s, so point reads and update groups for a vertex route to
// exactly one shard and batch apply never crosses shards.
#ifndef SRC_SERVICE_SHARD_MAP_H_
#define SRC_SERVICE_SHARD_MAP_H_

#include <cstdint>
#include <string>

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

}  // namespace lsg

#endif  // SRC_SERVICE_SHARD_MAP_H_
