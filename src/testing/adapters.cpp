#include "src/testing/adapters.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/baselines/ctree_graph.h"
#include "src/baselines/terrace_graph.h"
#include "src/core/engine_concept.h"
#include "src/core/lsgraph.h"
#include "src/service/router.h"
#include "src/service/shard_map.h"
#include "src/service/sharded_graph.h"

namespace lsg {
namespace {

// Every engine this harness wraps must satisfy the full concept — interface
// drift fails here, at compile time, instead of inside the fuzzer.
static_assert(StreamingEngine<LSGraph>);
static_assert(StreamingEngine<TerraceGraph>);
static_assert(StreamingEngine<AspenGraph>);
static_assert(StreamingEngine<PacTreeGraph>);

// std::set-backed oracle implementing the shared endpoint-validation policy
// (count and skip out-of-range edges) so the engines can be compared against
// it verbatim, rejects included.
class ReferenceAdapter : public EngineAdapter {
 public:
  explicit ReferenceAdapter(VertexId n) : adj_(n) {}

  std::string_view name() const override { return "reference"; }

  bool InsertEdge(VertexId src, VertexId dst) override {
    if (OutOfRange(src, dst)) {
      ++oob_rejected_;
      return false;
    }
    return adj_[src].insert(dst).second;
  }

  bool DeleteEdge(VertexId src, VertexId dst) override {
    if (OutOfRange(src, dst)) {
      ++oob_rejected_;
      return false;
    }
    return adj_[src].erase(dst) != 0;
  }

  size_t InsertBatch(std::span<const Edge> batch) override {
    size_t added = 0;
    for (const Edge& e : batch) {
      added += InsertEdge(e.src, e.dst);
    }
    return added;
  }

  size_t DeleteBatch(std::span<const Edge> batch) override {
    size_t removed = 0;
    for (const Edge& e : batch) {
      removed += DeleteEdge(e.src, e.dst);
    }
    return removed;
  }

  void BuildFromEdges(std::vector<Edge> edges) override {
    for (auto& s : adj_) {
      s.clear();
    }
    oob_rejected_ += RemoveOutOfRangeEdges(&edges, NumVertices());
    for (const Edge& e : edges) {
      adj_[e.src].insert(e.dst);
    }
  }

  VertexId AddVertices(VertexId count) override {
    VertexId first = NumVertices();
    adj_.resize(adj_.size() + count);
    return first;
  }

  bool HasEdge(VertexId src, VertexId dst) const override {
    if (OutOfRange(src, dst)) {
      return false;
    }
    return adj_[src].count(dst) != 0;
  }

  size_t Degree(VertexId v) const override { return adj_[v].size(); }
  VertexId NumVertices() const override {
    return static_cast<VertexId>(adj_.size());
  }
  EdgeCount NumEdges() const override {
    EdgeCount total = 0;
    for (const auto& s : adj_) {
      total += s.size();
    }
    return total;
  }
  uint64_t OobRejected() const override { return oob_rejected_; }

  std::vector<VertexId> Neighbors(VertexId v) const override {
    return {adj_[v].begin(), adj_[v].end()};
  }

  bool CheckInvariants() const override { return true; }

  // Pin = deep copy: the canonical frozen state later pins are diffed
  // against.
  bool SupportsPin() const override { return true; }
  size_t NumPins() const override { return pins_.size(); }
  void Pin() override { pins_.push_back(adj_); }
  void ReleasePin() override { pins_.pop_back(); }
  VertexId PinnedNumVertices() const override {
    return static_cast<VertexId>(pins_.back().size());
  }
  std::vector<VertexId> PinnedNeighbors(VertexId v) const override {
    const auto& adj = pins_.back();
    if (v >= adj.size()) {
      return {};
    }
    return {adj[v].begin(), adj[v].end()};
  }

 private:
  bool OutOfRange(VertexId src, VertexId dst) const {
    return src >= NumVertices() || dst >= NumVertices();
  }

  std::vector<std::set<VertexId>> adj_;
  std::vector<std::vector<std::set<VertexId>>> pins_;
  uint64_t oob_rejected_ = 0;
};

// One template wraps all four engines: they share the update/query surface
// by convention (the typed engine tests rely on the same shape).
template <typename G>
class GraphAdapter : public EngineAdapter {
 public:
  GraphAdapter(std::string_view name, std::unique_ptr<G> graph)
      : name_(name), graph_(std::move(graph)) {}

  std::string_view name() const override { return name_; }

  bool InsertEdge(VertexId src, VertexId dst) override {
    return graph_->InsertEdge(src, dst);
  }
  bool DeleteEdge(VertexId src, VertexId dst) override {
    return graph_->DeleteEdge(src, dst);
  }
  size_t InsertBatch(std::span<const Edge> batch) override {
    return graph_->InsertBatch(batch);
  }
  size_t DeleteBatch(std::span<const Edge> batch) override {
    return graph_->DeleteBatch(batch);
  }
  void BuildFromEdges(std::vector<Edge> edges) override {
    graph_->BuildFromEdges(std::move(edges));
  }
  VertexId AddVertices(VertexId count) override {
    return graph_->AddVertices(count);
  }

  bool HasEdge(VertexId src, VertexId dst) const override {
    return graph_->HasEdge(src, dst);
  }
  size_t Degree(VertexId v) const override { return graph_->degree(v); }
  VertexId NumVertices() const override { return graph_->num_vertices(); }
  EdgeCount NumEdges() const override { return graph_->num_edges(); }
  uint64_t OobRejected() const override { return graph_->oob_rejected(); }

  std::vector<VertexId> Neighbors(VertexId v) const override {
    std::vector<VertexId> out;
    graph_->map_neighbors(v, [&out](VertexId u) { out.push_back(u); });
    return out;
  }

  bool CheckInvariants() const override { return graph_->CheckInvariants(); }

  size_t LiveFootprint() const override { return graph_->memory_footprint(); }

 protected:
  G& graph() { return *graph_; }
  const G& graph() const { return *graph_; }

 private:
  std::string_view name_;
  std::unique_ptr<G> graph_;
};

// LSGraph additionally supports the memory audit: a freshly bulk-loaded
// engine with the same content is the footprint the live engine should stay
// within a constant factor of (delete paths must release, not retain).
class LSGraphAdapter : public GraphAdapter<LSGraph> {
 public:
  LSGraphAdapter(std::unique_ptr<LSGraph> graph, ThreadPool* pool,
                 std::string_view name = "lsgraph")
      : GraphAdapter(name, std::move(graph)), pool_(pool) {}

  size_t FreshFootprint() const override {
    std::vector<Edge> edges;
    for (VertexId v = 0; v < graph().num_vertices(); ++v) {
      graph().map_neighbors(
          v, [&edges, v](VertexId u) { edges.push_back(Edge{v, u}); });
    }
    LSGraph fresh(graph().num_vertices(), graph().options(), pool_);
    fresh.BuildFromEdges(std::move(edges));
    return fresh.memory_footprint();
  }

  // Pin = a real MVCC snapshot of the engine, compared against the
  // oracle's deep copy at every 'R' op.
  bool SupportsPin() const override { return true; }
  size_t NumPins() const override { return pins_.size(); }
  void Pin() override { pins_.push_back(graph().Snapshot()); }
  void ReleasePin() override { pins_.pop_back(); }
  VertexId PinnedNumVertices() const override {
    return pins_.back()->num_vertices();
  }
  std::vector<VertexId> PinnedNeighbors(VertexId v) const override {
    std::vector<VertexId> out;
    pins_.back()->map_neighbors(v, [&out](VertexId u) { out.push_back(u); });
    return out;
  }

 private:
  ThreadPool* pool_;
  // Declared after the base's engine member, so pins release before the
  // engine destructs (snapshots must not outlive their engine).
  std::vector<std::shared_ptr<const GraphSnapshot>> pins_;
};

// The sharded service stack as one cohort member. Every mutation is
// blocking (SubmitAndWait), so by the time an op returns the per-shard
// read views already reflect it and the point-read answers the runner
// compares are exact — the concurrency the service layer adds (queues,
// drainer threads, completions, view swaps) still all executes on every
// op, which is the point: differential traces through this adapter diff
// the entire routing/partitioning/pipeline machinery against std::set.
class ShardedAdapter : public EngineAdapter {
 public:
  ShardedAdapter(VertexId n, uint32_t shards, Options engine_options,
                 ThreadPool* pool, std::string_view name = "sharded")
      : name_(name) {
    ServiceOptions sopts;
    sopts.num_shards = shards;
    sopts.pool = pool;
    // Keep the fuzz cohort lean: one worker per shard engine.
    sopts.engine_threads = shards;
    sopts.engine = engine_options;
    graph_ = std::make_unique<ShardedGraph>(
        n, std::make_unique<HashShardMap>(shards), sopts);
    router_ = std::make_unique<Router>(*graph_);
  }

  std::string_view name() const override { return name_; }

  bool InsertEdge(VertexId src, VertexId dst) override {
    return Submit(ShardedGraph::UpdateKind::kInsert, {Edge{src, dst}}) == 1;
  }
  bool DeleteEdge(VertexId src, VertexId dst) override {
    return Submit(ShardedGraph::UpdateKind::kDelete, {Edge{src, dst}}) == 1;
  }
  size_t InsertBatch(std::span<const Edge> batch) override {
    return Submit(ShardedGraph::UpdateKind::kInsert,
                  std::vector<Edge>(batch.begin(), batch.end()));
  }
  size_t DeleteBatch(std::span<const Edge> batch) override {
    return Submit(ShardedGraph::UpdateKind::kDelete,
                  std::vector<Edge>(batch.begin(), batch.end()));
  }
  void BuildFromEdges(std::vector<Edge> edges) override {
    graph_->BuildFromEdges(std::move(edges));
  }
  VertexId AddVertices(VertexId count) override {
    return graph_->AddVertices(count);
  }

  bool HasEdge(VertexId src, VertexId dst) const override {
    return router_->HasEdge(src, dst);
  }
  size_t Degree(VertexId v) const override { return router_->Degree(v); }
  VertexId NumVertices() const override { return graph_->num_vertices(); }
  EdgeCount NumEdges() const override { return graph_->num_edges(); }
  uint64_t OobRejected() const override { return graph_->oob_rejected(); }
  std::vector<VertexId> Neighbors(VertexId v) const override {
    return router_->Neighbors(v);
  }

  bool CheckInvariants() const override { return graph_->CheckInvariants(); }

  // Pin = every shard's current view, captured together. Mutations are
  // blocking and the runner is single-threaded, so the capture is one
  // consistent cut of the whole sharded graph.
  bool SupportsPin() const override { return true; }
  size_t NumPins() const override { return pins_.size(); }
  void Pin() override {
    std::vector<std::shared_ptr<const GraphSnapshot>> views;
    views.reserve(graph_->num_shards());
    for (uint32_t s = 0; s < graph_->num_shards(); ++s) {
      views.push_back(graph_->ReadView(s));
    }
    pins_.push_back(std::move(views));
  }
  void ReleasePin() override { pins_.pop_back(); }
  VertexId PinnedNumVertices() const override {
    return pins_.back().front()->num_vertices();
  }
  std::vector<VertexId> PinnedNeighbors(VertexId v) const override {
    const auto& views = pins_.back();
    uint32_t s = graph_->shard_map().ShardOf(v);
    std::vector<VertexId> out;
    views[s]->FillNeighbors(v, &out);
    return out;
  }

 private:
  // The one update path: blocking, and the service is never stopped here,
  // so every submit is accepted. Returns the edges added / removed.
  size_t Submit(ShardedGraph::UpdateKind kind, std::vector<Edge> batch) {
    size_t applied = 0;
    graph_->SubmitAndWait(kind, std::move(batch), &applied);
    return applied;
  }

  std::string_view name_;
  std::unique_ptr<ShardedGraph> graph_;
  std::unique_ptr<Router> router_;
  // Declared last: pins release before the graph destructs (views must not
  // outlive their shard engines).
  std::vector<std::vector<std::shared_ptr<const GraphSnapshot>>> pins_;
};

// Deterministically buggy oracle wrapper for harness self-tests.
class DropInsertAdapter : public ReferenceAdapter {
 public:
  DropInsertAdapter(VertexId n, VertexId modulus, VertexId residue)
      : ReferenceAdapter(n), modulus_(modulus), residue_(residue) {}

  std::string_view name() const override { return "drop-insert"; }

  bool InsertEdge(VertexId src, VertexId dst) override {
    if (dst % modulus_ == residue_) {
      return false;  // injected bug: silently drops the edge
    }
    return ReferenceAdapter::InsertEdge(src, dst);
  }

 private:
  VertexId modulus_;
  VertexId residue_;
};

}  // namespace

std::vector<std::unique_ptr<EngineAdapter>> MakeDefaultAdapters(
    VertexId n, ThreadPool* pool) {
  std::vector<std::unique_ptr<EngineAdapter>> out;
  out.push_back(std::make_unique<ReferenceAdapter>(n));
  out.push_back(std::make_unique<LSGraphAdapter>(
      std::make_unique<LSGraph>(n, Options{}, pool), pool));
  // Compressed-leaf LSGraph, run lockstep against the same oracle so every
  // insert/delete/recompress path diffs against std::set. Shrunk thresholds
  // force a short trace through the whole ladder: CRIA -> HITree conversion
  // (m), Lia children whose leaves are CRIAs, and the delete-side
  // downgrades; a small block keeps redistributions/rebuilds frequent.
  Options cria_options;
  cria_options.compress_leaves = true;
  cria_options.m_threshold = 64;
  cria_options.cria_block_bytes = 32;
  out.push_back(std::make_unique<LSGraphAdapter>(
      std::make_unique<LSGraph>(n, cria_options, pool), pool, "lsgraph-cria"));
  out.push_back(std::make_unique<GraphAdapter<TerraceGraph>>(
      "terrace", std::make_unique<TerraceGraph>(n, TerraceOptions{}, pool)));
  out.push_back(std::make_unique<GraphAdapter<AspenGraph>>(
      "aspen", std::make_unique<AspenGraph>(n, pool)));
  // The sharded service stack, small compressed-leaf engines behind the
  // router: 3 shards (odd, so hash placement is never trivially aligned
  // with the id space) with the same shrunk CRIA thresholds as above.
  out.push_back(std::make_unique<ShardedAdapter>(n, 3, cria_options, pool,
                                                 "sharded-cria"));
  return out;
}

std::unique_ptr<EngineAdapter> MakeReferenceAdapter(VertexId n) {
  return std::make_unique<ReferenceAdapter>(n);
}

std::unique_ptr<EngineAdapter> MakeDropInsertAdapter(VertexId n,
                                                     VertexId modulus,
                                                     VertexId residue) {
  return std::make_unique<DropInsertAdapter>(n, modulus, residue);
}

std::unique_ptr<EngineAdapter> MakeShardedAdapter(VertexId n, uint32_t shards,
                                                  bool compress_leaves,
                                                  ThreadPool* pool) {
  Options engine_options;
  engine_options.compress_leaves = compress_leaves;
  return std::make_unique<ShardedAdapter>(n, shards, engine_options, pool);
}

}  // namespace lsg
