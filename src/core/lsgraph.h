// LSGraph: the locality-centric streaming graph engine (paper §4, §5).
//
// Per-vertex layout (Fig. 9): one cache line of vertex block holds the
// degree, up to L inline neighbors (the smallest ids), and a pointer to the
// overflow tail. The tail is a HiNode whose representation follows the
// vertex's degree: plain array (<= L+A), RIA (<= L+M), HITree (> L+M).
// Invariant: every inline id < every tail id, so traversal is a sorted scan
// of the inline run followed by the tail's Traverse.
//
// Batch updates sort by (src, dst), group per source vertex, and hand each
// group to one thread (§5): no locks, no cross-vertex movement.
//
// Snapshot isolation (DESIGN.md §12): Snapshot() pins the current version
// and returns an immutable, refcounted GraphView handle that analytics can
// traverse while later update batches land. While any snapshot is pinned,
// writers go copy-on-write: each mutated vertex's pre-image (its 64-byte
// block plus one reference to its tail) is pushed onto a per-vertex version
// chain, the new state is built aside and published with a per-vertex
// sequence number, and replaced structures are freed through the epoch
// reclaimer only after every reader that could hold them has unpinned.
// With no snapshots pinned, every update path is the original in-place
// code. AddVertices and engine destruction must not race snapshot reads
// (release every snapshot first); everything else may.
#ifndef SRC_CORE_LSGRAPH_H_
#define SRC_CORE_LSGRAPH_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "src/core/batch_observer.h"
#include "src/core/hitree.h"
#include "src/core/options.h"
#include "src/parallel/epoch.h"
#include "src/parallel/thread_pool.h"
#include "src/util/cache.h"
#include "src/util/graph_types.h"
#include "src/util/sort.h"

namespace lsg {

class GraphSnapshot;

class LSGraph {
 public:
  // One cache line: degree + inline count + L inline ids + tail pointer.
  static constexpr size_t kInlineCap =
      (kCacheLineBytes - 2 * sizeof(uint32_t) - sizeof(void*)) /
      sizeof(VertexId);  // L = 12 with 64-byte lines and 4-byte ids

  LSGraph(VertexId num_vertices, Options options = {},
          ThreadPool* pool = nullptr);
  ~LSGraph();

  LSGraph(const LSGraph&) = delete;
  LSGraph& operator=(const LSGraph&) = delete;

  // Bulk (re)construction from an arbitrary edge list (sorted +
  // deduplicated internally); parallel across vertices. Invoked on a
  // non-empty engine it first releases every existing adjacency, so the
  // result is exactly the given edge list — vertices absent from it end up
  // empty. Pinned snapshots keep observing the pre-build state.
  void BuildFromEdges(std::vector<Edge> edges);

  // Grows the vertex set by `count` ids (streaming graphs add vertices as
  // well as edges); new vertices start with empty adjacency. Returns the
  // first new id. Not concurrent with updates, analytics, or snapshot
  // reads (the per-vertex arrays reallocate).
  VertexId AddVertices(VertexId count);

  // Batched streaming updates (§5): parallel sort + fused dedup/grouping
  // (PrepareBatch), then one vertex group per thread, largest group first.
  // Returns the number of edges actually added / removed.
  size_t InsertBatch(std::span<const Edge> batch);
  size_t DeleteBatch(std::span<const Edge> batch);

  // Apply phase only, for callers that already ran PrepareBatch (the
  // benchmark phase breakdown times prepare and apply separately).
  size_t InsertPrepared(const PreparedBatch& pb);
  size_t DeletePrepared(const PreparedBatch& pb);

  // Single-edge operations (serial).
  bool InsertEdge(VertexId src, VertexId dst);
  bool DeleteEdge(VertexId src, VertexId dst);
  bool HasEdge(VertexId src, VertexId dst) const;

  // Pins the graph at the current version and returns an immutable view of
  // it. Acquiring waits for any in-flight update batch (snapshots land on
  // batch boundaries); the handle itself is safe to read from any number
  // of threads while later updates run. The pin is released when the last
  // shared_ptr drops; every snapshot must be released before the engine is
  // destroyed or AddVertices/graph teardown runs.
  std::shared_ptr<const GraphSnapshot> Snapshot() const;

  VertexId num_vertices() const { return static_cast<VertexId>(blocks_.size()); }
  EdgeCount num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }
  size_t degree(VertexId v) const { return blocks_[v].degree; }

  // Edges naming a vertex >= num_vertices() are rejected (counted and
  // skipped) by every update path; HasEdge on them reports false. See
  // DESIGN.md "Endpoint validation".
  uint64_t oob_rejected() const {
    return oob_rejected_.load(std::memory_order_relaxed);
  }

  // Applies f(u) to every neighbor u of v in ascending order; false iff f
  // stopped the scan (Visit; pull-mode EdgeMap's early exit, §6.3).
  template <typename F>
  bool map_neighbors(VertexId v, F&& f) const {
    const VertexBlock& vb = blocks_[v];
    for (uint32_t i = 0; i < vb.inline_count; ++i) {
      if (!Visit(f, vb.inline_edges[i])) {
        return false;
      }
    }
    return vb.tail == nullptr || vb.tail->Map(f);
  }

  // Appends v's neighbors, ascending, to out (the array staging used by the
  // TC kernel, §6.3).
  void FillNeighbors(VertexId v, std::vector<VertexId>* out) const {
    out->reserve(out->size() + degree(v));
    map_neighbors(v, [out](VertexId u) { out->push_back(u); });
  }

  size_t memory_footprint() const;
  // RIA index arrays + LIA models/types: Table 3's index overhead.
  size_t index_bytes() const;

  // Bytes held by adjacency tails only (no vertex blocks): the part of the
  // footprint the compressed leaf mode actually changes, and the numerator
  // of the bytes/edge telemetry. Denominator: tail_edges(), the edges
  // resident in tails (inline ids are raw in both modes).
  size_t adjacency_bytes() const;
  EdgeCount tail_edges() const;

  const CoreStats& stats() const { return stats_; }
  CoreStats& mutable_stats() { return stats_; }
  const Options& options() const { return options_; }

  // Batch-boundary hooks (DESIGN.md §15): observers run on the mutating
  // thread after each unit's writer gate releases (see batch_observer.h
  // for the ordering discipline). Register/unregister only while no
  // mutations are in flight.
  void AddBatchObserver(BatchObserver* observer);
  void RemoveBatchObserver(BatchObserver* observer);

  // Deep structural check across every vertex (tests only; O(E)).
  bool CheckInvariants() const;

 private:
  friend class GraphSnapshot;

  struct VertexBlock {
    uint32_t degree = 0;
    uint32_t inline_count = 0;
    VertexId inline_edges[kInlineCap];
    HiNode* tail = nullptr;  // owned (one ref); raw to keep the block one line
  };
  static_assert(sizeof(VertexBlock) == kCacheLineBytes);

  // Frozen pre-image of one vertex: the block state that was live when the
  // version stamped `vseq` was replaced. Immutable once published; `tail`
  // holds one reference. Chains are newest-first; `older` is atomic only so
  // pruning can relink while readers walk concurrently.
  struct VertexVersion {
    uint64_t vseq = 0;
    uint32_t degree = 0;
    uint32_t inline_count = 0;
    VertexId inline_edges[kInlineCap];
    HiNode* tail = nullptr;
    std::atomic<VertexVersion*> older{nullptr};
  };

  // Copyable atomic cells so the per-vertex arrays can still resize
  // (AddVertices is documented non-concurrent with snapshot reads).
  struct SeqCell {
    std::atomic<uint64_t> v{0};
    SeqCell() = default;
    SeqCell(const SeqCell& o) : v(o.v.load(std::memory_order_relaxed)) {}
    SeqCell& operator=(const SeqCell& o) {
      v.store(o.v.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
  };
  struct ChainCell {
    std::atomic<VertexVersion*> head{nullptr};
    ChainCell() = default;
    ChainCell(const ChainCell& o)
        : head(o.head.load(std::memory_order_relaxed)) {}
    ChainCell& operator=(const ChainCell& o) {
      head.store(o.head.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      return *this;
    }
  };

  // Per-mutation-unit snapshot of the writer's obligations, captured once
  // under the writer gate and shared read-only by the batch workers.
  struct MutationCtx {
    uint64_t w = 0;              // version this unit publishes
    uint64_t newest_pinned = 0;  // newest pinned snapshot (valid iff cow)
    bool cow = false;            // any snapshot pinned at unit start?
  };

  bool InsertIntoVertex(VertexBlock& vb, VertexId dst);
  bool DeleteFromVertex(VertexBlock& vb, VertexId dst);

  // Grouped-batch recompress path (compressed mode): instead of paying one
  // block decode + re-encode per edge, a large group merges against the
  // whole adjacency in one decode / set-merge / rebuild. Below this group
  // size the per-edge path wins (one touched block vs a full re-encode).
  static constexpr size_t kGroupMergeMin = 16;
  // Merges the sorted unique dsts of pb group g into vb; returns edges
  // added, accumulating out-of-range dsts into *oob.
  size_t MergeGroupIntoVertex(VertexBlock& vb, const PreparedBatch& pb,
                              size_t g, size_t* oob);
  size_t DeleteGroupFromVertex(VertexBlock& vb, const PreparedBatch& pb,
                               size_t g, size_t* oob);
  // Re-lays vb out as exactly `ids` (sorted unique): smallest kInlineCap
  // inline, rest bulk-loaded into the tail (reused if present).
  void RebuildVertex(VertexBlock& vb, std::span<const VertexId> ids);

  // Invariant: a non-null tail is never empty. Releasing the HiNode the
  // moment it drains frees its arrays/index instead of retaining the
  // largest representation the vertex ever reached. (Unref, not delete:
  // a pre-image chain node may still share the structure.)
  static void FreeTailIfDrained(VertexBlock& vb) {
    if (vb.tail != nullptr && vb.tail->size() == 0) {
      vb.tail->Unref();
      vb.tail = nullptr;
    }
  }

  // --- MVCC internals (all require the writer gate unless noted) ---

  // Captures the writer's obligations for one mutation unit (a batch or a
  // single-edge op) and assigns its version.
  MutationCtx BeginUnit();
  // Starts a copy-on-write mutation of v: returns a private working copy
  // whose tail is a COW clone of the live one. Safe from batch workers
  // (each vertex is owned by one worker).
  VertexBlock CowBegin(VertexId v) const;
  // Publishes the privately mutated `work` as v's new state: preserves the
  // pre-image on the version chain if a pinned snapshot can still see it
  // (else epoch-retires the replaced tail), stamps the version, and stores
  // the block fields atomically so concurrent readers never tear.
  void CowPublish(VertexId v, const VertexBlock& work, const MutationCtx& mv);
  // Tracks v as owning a version chain, for pruning. Thread-safe.
  void RecordChained(VertexId v);
  // Retires every chain node no pinned snapshot can reach. Requires the
  // writer gate (runs at batch boundaries, snapshot release, destruction).
  void PruneChains();
  // Cleanup at the end of a gated mutation unit: prune unreachable chain
  // nodes and give the epoch reclaimer a chance to advance. No-op (and
  // lock-free) when the engine has never gone copy-on-write.
  void EndUnit(const MutationCtx& mv);
  void RetireTail(HiNode* tail);
  void ReleaseSnapshotVersion(uint64_t version) const;

  // The apply phase of InsertPrepared / DeletePrepared, under the writer
  // gate: one group per vertex, run through the prefetch pipeline below.
  size_t ApplyPreparedLocked(const PreparedBatch& pb, bool is_delete);
  // ForEachGroupLargestFirst's lookahead hook: before chunk[i] is applied,
  // starts the vertex block, HiNode and payload loads of later groups of
  // the chunk, at the distances in lsgraph.cpp. Only reads vertices of the
  // chunk, which this thread alone mutates.
  void PrefetchAhead(const PreparedBatch& pb, std::span<const uint32_t> chunk,
                     size_t i) const;

  // Invoked outside the writer gate on the mutating thread.
  void NotifyBatchApplied(bool is_delete, std::span<const Edge> edges) const;
  void NotifyGraphReplaced() const;

  // Snapshot read path (no gate; epoch-guarded). Stages v's live neighbor
  // run into *out via tear-proof atomic field reads, then validates that
  // the version did not move; false means the caller must fall back to the
  // pre-image chain.
  bool StageLive(VertexId v, uint64_t s1, std::vector<VertexId>* out) const;
  size_t SnapshotDegree(uint64_t snap, VertexId v) const;
  bool SnapshotHasEdge(uint64_t snap, VertexId src, VertexId dst) const;
  // Finds the newest pre-image of v visible at `snap`; null means v was
  // empty (or unborn) at that version.
  const VertexVersion* FindVersion(uint64_t snap, VertexId v) const;
  // Thread-local staging buffer, moved out/in so nested snapshot reads on
  // one thread each get their own.
  static std::vector<VertexId> TakeScratch();
  static void ReturnScratch(std::vector<VertexId> scratch);

  // Snapshot traversal, same contract as map_neighbors.
  template <typename F>
  bool SnapshotMapNeighbors(uint64_t snap, VertexId v, F&& f) const {
    EpochManager::Guard guard;
    uint64_t s1 = vseq_[v].v.load(std::memory_order_acquire);
    if (s1 <= snap) {
      // Stage-then-consume: early exit saves callback work, not decode
      // work, on the live path; pre-image paths stream below.
      std::vector<VertexId> scratch = TakeScratch();
      bool ok = StageLive(v, s1, &scratch);
      bool full = true;
      if (ok) {
        for (VertexId u : scratch) {
          if (!Visit(f, u)) {
            full = false;
            break;
          }
        }
      }
      ReturnScratch(std::move(scratch));
      if (ok) {
        return full;
      }
      // The vertex changed under the read; its pre-image is now preserved.
    }
    const VertexVersion* node = FindVersion(snap, v);
    if (node == nullptr) {
      return true;
    }
    for (uint32_t i = 0; i < node->inline_count; ++i) {
      if (!Visit(f, node->inline_edges[i])) {
        return false;
      }
    }
    return node->tail == nullptr || node->tail->Map(f);
  }

  ThreadPool& pool() const;

  Options options_;
  std::vector<VertexBlock> blocks_;
  std::atomic<EdgeCount> num_edges_{0};
  ThreadPool* pool_ = nullptr;
  // Mutable: the snapshot gauge moves on the const acquire/release path.
  mutable CoreStats stats_;
  // Atomic: batch apply rejects from one thread per vertex group.
  std::atomic<uint64_t> oob_rejected_{0};

  // MVCC state. writer_mu_ is the writer gate: every mutation unit and
  // every snapshot acquire holds it, so snapshots pin batch boundaries.
  mutable std::mutex writer_mu_;
  uint64_t version_ = 0;  // last published version; writer gate only
  mutable std::mutex snap_mu_;
  mutable std::multiset<uint64_t> pinned_;  // versions of live snapshots
  mutable std::vector<SeqCell> vseq_;       // version of v's last mutation
  mutable std::vector<ChainCell> chains_;   // newest-first pre-image chains
  std::mutex chained_mu_;
  std::vector<VertexId> chained_;  // vertices with a non-empty chain

  // Batch observers; mutated only while updates are quiescent.
  std::vector<BatchObserver*> observers_;
};

// An immutable, refcounted view of one LSGraph version. Satisfies the
// GraphView concept, so EdgeMap and every analytics kernel run against it
// unchanged while update batches land on the live graph. Obtained from
// LSGraph::Snapshot(); the pin releases when the last shared_ptr drops.
// Handles must not outlive their engine.
class GraphSnapshot {
 public:
  ~GraphSnapshot() { g_->ReleaseSnapshotVersion(version_); }

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  // The version pinned, for telemetry and tests.
  uint64_t version() const { return version_; }

  VertexId num_vertices() const { return num_vertices_; }
  EdgeCount num_edges() const { return num_edges_; }

  size_t degree(VertexId v) const {
    return v < num_vertices_ ? g_->SnapshotDegree(version_, v) : 0;
  }

  bool HasEdge(VertexId src, VertexId dst) const {
    return src < num_vertices_ && dst < num_vertices_ &&
           g_->SnapshotHasEdge(version_, src, dst);
  }

  // Same contract as LSGraph::map_neighbors, at the pinned version.
  template <typename F>
  bool map_neighbors(VertexId v, F&& f) const {
    return v >= num_vertices_ || g_->SnapshotMapNeighbors(version_, v, f);
  }

  void FillNeighbors(VertexId v, std::vector<VertexId>* out) const {
    out->reserve(out->size() + degree(v));
    map_neighbors(v, [out](VertexId u) { out->push_back(u); });
  }

 private:
  friend class LSGraph;
  GraphSnapshot(const LSGraph* g, uint64_t version, VertexId num_vertices,
                EdgeCount num_edges)
      : g_(g),
        version_(version),
        num_vertices_(num_vertices),
        num_edges_(num_edges) {}

  const LSGraph* g_;
  uint64_t version_;
  VertexId num_vertices_;
  EdgeCount num_edges_;
};

}  // namespace lsg

#endif  // SRC_CORE_LSGRAPH_H_
