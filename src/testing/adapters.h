// Type-erased engine adapters for the differential fuzz harness.
//
// Every engine under test (LSGraph, Terrace, Aspen, PaC-tree) and the
// sharded service stack, plus a std::set-backed reference oracle, is
// wrapped behind one virtual interface so the runner can drive them in
// lockstep and compare results op by op. Adapter 0 in a factory's output is
// always the oracle.
#ifndef SRC_TESTING_ADAPTERS_H_
#define SRC_TESTING_ADAPTERS_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/parallel/thread_pool.h"
#include "src/util/graph_types.h"

namespace lsg {

class EngineAdapter {
 public:
  virtual ~EngineAdapter() = default;

  virtual std::string_view name() const = 0;

  virtual bool InsertEdge(VertexId src, VertexId dst) = 0;
  virtual bool DeleteEdge(VertexId src, VertexId dst) = 0;
  virtual size_t InsertBatch(std::span<const Edge> batch) = 0;
  virtual size_t DeleteBatch(std::span<const Edge> batch) = 0;
  virtual void BuildFromEdges(std::vector<Edge> edges) = 0;
  virtual VertexId AddVertices(VertexId count) = 0;

  virtual bool HasEdge(VertexId src, VertexId dst) const = 0;
  virtual size_t Degree(VertexId v) const = 0;
  virtual VertexId NumVertices() const = 0;
  virtual EdgeCount NumEdges() const = 0;
  virtual uint64_t OobRejected() const = 0;
  virtual std::vector<VertexId> Neighbors(VertexId v) const = 0;

  virtual bool CheckInvariants() const = 0;

  // Snapshot-pin hooks (trace ops 'P'/'R'). Pins form a stack; the Pinned*
  // probes read the newest pin. Engines without snapshot support keep the
  // defaults and the runner skips them in pinned-state comparisons. The
  // oracle pins by deep-copying its state, LSGraph by a real Snapshot(),
  // so a 'R' compare proves the pinned view never moved while later trace
  // ops mutated the live graph.
  virtual bool SupportsPin() const { return false; }
  virtual size_t NumPins() const { return 0; }
  virtual void Pin() {}
  virtual void ReleasePin() {}
  virtual VertexId PinnedNumVertices() const { return 0; }
  virtual std::vector<VertexId> PinnedNeighbors(VertexId) const { return {}; }

  // Memory-accounting audit hooks. LiveFootprint() is the engine's current
  // self-reported footprint; FreshFootprint() builds a throwaway engine of
  // the same shape from the current edge set and reports its footprint.
  // Engines without meaningful accounting return 0 from both, which the
  // runner treats as "audit not supported".
  virtual size_t LiveFootprint() const { return 0; }
  virtual size_t FreshFootprint() const { return 0; }
};

// A factory builds the lockstep cohort for a given initial vertex count.
// Slot 0 must be the reference oracle.
using AdapterFactory =
    std::function<std::vector<std::unique_ptr<EngineAdapter>>(VertexId n,
                                                              ThreadPool* pool)>;

// Reference + the cohort: LSGraph with raw and with compressed leaves,
// Terrace, Aspen, and the sharded service stack (the PaC-tree
// configuration shares CTreeGraph's code paths with Aspen, so the default
// cohort runs one of the two).
std::vector<std::unique_ptr<EngineAdapter>> MakeDefaultAdapters(
    VertexId n, ThreadPool* pool);

// The std::set-backed oracle on its own (used as a building block and by
// the shrinker tests).
std::unique_ptr<EngineAdapter> MakeReferenceAdapter(VertexId n);

// Oracle wrapper with a deterministic injected bug: single-edge inserts of
// edges with dst % modulus == residue are silently dropped. Lets tests
// prove the harness detects divergence and the shrinker minimizes it,
// without un-fixing a real engine.
std::unique_ptr<EngineAdapter> MakeDropInsertAdapter(VertexId n,
                                                     VertexId modulus,
                                                     VertexId residue);

// The sharded service stack (ShardedGraph + Router, hash-partitioned over
// `shards` engines) as a cohort member: every trace op routes through the
// service layer — partitioning, per-shard queues, blocking completions,
// view refresh — so differential traces diff the whole serving machinery
// against the std::set oracle, not just a single engine. Pins capture all
// shard views at once (one consistent cut, since adapter mutations are
// blocking).
std::unique_ptr<EngineAdapter> MakeShardedAdapter(VertexId n, uint32_t shards,
                                                  bool compress_leaves,
                                                  ThreadPool* pool);

}  // namespace lsg

#endif  // SRC_TESTING_ADAPTERS_H_
