#include "src/core/lsgraph.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "src/util/sort.h"

namespace lsg {

namespace {
// Staging buffers for the snapshot read path, pooled per thread. Taken by
// move so a nested snapshot read (a kernel reading one snapshot inside a
// callback reading another) gets its own buffer instead of aliasing.
thread_local std::vector<std::vector<VertexId>> scratch_pool;  // NOLINT
}  // namespace

LSGraph::LSGraph(VertexId num_vertices, Options options, ThreadPool* pool)
    : options_(options),
      blocks_(num_vertices),
      pool_(pool),
      vseq_(num_vertices),
      chains_(num_vertices) {
  // Reject unusable tunables at the door instead of deep inside a
  // conversion path (Options::Validate documents every bound).
  if (std::string err = options_.Validate(); !err.empty()) {
    throw std::invalid_argument("LSGraph: invalid Options: " + err);
  }
  // Wire every structure this engine creates to its shared counters.
  options_.stats = &stats_;
}

LSGraph::~LSGraph() {
  // Contract: every snapshot was released before destruction, so no pins
  // remain and pruning retires every chain node. Drain then runs the
  // deferred frees (no readers can be inside an epoch guard for this
  // engine any more), and the live tails drop their last reference.
  assert(stats_.snapshots_live.load(std::memory_order_relaxed) == 0);
  PruneChains();
  EpochManager::Global().Drain();
  for (VertexBlock& vb : blocks_) {
    if (vb.tail != nullptr) {
      vb.tail->Unref();
    }
  }
}

ThreadPool& LSGraph::pool() const {
  return pool_ != nullptr ? *pool_ : ThreadPool::Global();
}

VertexId LSGraph::AddVertices(VertexId count) {
  std::lock_guard<std::mutex> gate(writer_mu_);
  VertexId first = num_vertices();
  blocks_.resize(blocks_.size() + count);
  vseq_.resize(blocks_.size());
  chains_.resize(blocks_.size());
  return first;
}

void LSGraph::BuildFromEdges(std::vector<Edge> edges) {
  std::unique_lock<std::mutex> gate(writer_mu_);
  const MutationCtx mv = BeginUnit();
  if (!mv.cow) {
    // Rebuild-in-place: release every existing tail and clear the inline
    // runs first. Overwriting vb.tail without this leaked the old HiNode,
    // and vertices absent from the new edge list kept their stale
    // adjacency.
    pool().ParallelFor(0, blocks_.size(), [this](size_t v) {
      if (blocks_[v].tail != nullptr) {
        blocks_[v].tail->Unref();
      }
      blocks_[v] = VertexBlock{};
    });
  } else {
    // Snapshots are pinned: publish the clear as a versioned mutation so
    // each vertex's pre-image lands on its chain. Vertices that were
    // already empty (and chainless) publish without preserving anything.
    pool().ParallelFor(0, blocks_.size(), [this, &mv](size_t v) {
      VertexBlock empty{};
      CowPublish(static_cast<VertexId>(v), empty, mv);
    });
  }
  num_edges_.store(0, std::memory_order_relaxed);
  oob_rejected_.fetch_add(RemoveOutOfRangeEdges(&edges, num_vertices()),
                          std::memory_order_relaxed);
  PreparedBatch pb = PrepareBatch(std::move(edges), pool());
  const std::vector<Edge>& sorted = pb.edges;
  ForEachGroupLargestFirst(pb, pool(), [&](size_t g) {
    size_t begin = pb.group_begin(g);
    size_t end = pb.group_end(g);
    VertexId v = sorted[begin].src;
    size_t deg = end - begin;
    size_t inl = std::min<size_t>(deg, kInlineCap);
    VertexBlock work{};
    VertexBlock& vb = mv.cow ? work : blocks_[v];
    for (size_t i = 0; i < inl; ++i) {
      vb.inline_edges[i] = sorted[begin + i].dst;
    }
    vb.inline_count = static_cast<uint32_t>(inl);
    vb.degree = static_cast<uint32_t>(deg);
    if (deg > inl) {
      std::vector<VertexId> tail_ids;
      tail_ids.reserve(deg - inl);
      for (size_t i = begin + inl; i < end; ++i) {
        tail_ids.push_back(sorted[i].dst);
      }
      vb.tail = new HiNode(options_);
      vb.tail->BulkLoad(tail_ids);
    }
    if (mv.cow) {
      // The phase-1 clear already stamped version w and preserved the real
      // pre-image, so this second publish replaces empty state: nothing
      // further is preserved or retired.
      CowPublish(v, work, mv);
    }
  });
  num_edges_.store(sorted.size(), std::memory_order_relaxed);
  EndUnit(mv);
  gate.unlock();
  NotifyGraphReplaced();
}

bool LSGraph::InsertIntoVertex(VertexBlock& vb, VertexId dst) {
  VertexId* begin = vb.inline_edges;
  VertexId* end = begin + vb.inline_count;
  VertexId* it = std::lower_bound(begin, end, dst);
  if (it != end && *it == dst) {
    return false;
  }
  if (vb.inline_count < kInlineCap) {
    // Invariant: tail non-empty implies the inline run is full, so there is
    // no tail to check against here.
    std::copy_backward(it, end, end + 1);
    *it = dst;
    ++vb.inline_count;
    ++vb.degree;
    return true;
  }
  if (dst > end[-1]) {
    // dst sorts after the inline run: it goes straight to the tail, which
    // may already contain it.
    if (vb.tail == nullptr) {
      vb.tail = new HiNode(options_);
    }
    if (!vb.tail->Insert(dst)) {
      return false;
    }
    ++vb.degree;
    return true;
  }
  // dst belongs inline; the current largest inline id spills to the tail.
  // The spilled id cannot be a tail duplicate (all tail ids exceed it).
  VertexId spilled = end[-1];
  std::copy_backward(it, end - 1, end);
  *it = dst;
  if (vb.tail == nullptr) {
    vb.tail = new HiNode(options_);
  }
  bool inserted = vb.tail->Insert(spilled);
  assert(inserted);
  (void)inserted;
  ++vb.degree;
  return true;
}

bool LSGraph::DeleteFromVertex(VertexBlock& vb, VertexId dst) {
  VertexId* begin = vb.inline_edges;
  VertexId* end = begin + vb.inline_count;
  VertexId* it = std::lower_bound(begin, end, dst);
  if (it != end && *it == dst) {
    std::copy(it + 1, end, it);
    --vb.inline_count;
    --vb.degree;
    if (vb.tail != nullptr) {
      // Backfill from the tail to keep the inline run full (and the
      // inline-max < tail-min invariant trivially true).
      VertexId min_tail = vb.tail->First();
      vb.tail->Delete(min_tail);
      vb.inline_edges[vb.inline_count++] = min_tail;
      FreeTailIfDrained(vb);
    }
    return true;
  }
  if (vb.tail == nullptr || !vb.tail->Delete(dst)) {
    return false;
  }
  --vb.degree;
  FreeTailIfDrained(vb);
  return true;
}

void LSGraph::RebuildVertex(VertexBlock& vb, std::span<const VertexId> ids) {
  size_t inl = std::min<size_t>(ids.size(), kInlineCap);
  for (size_t i = 0; i < inl; ++i) {
    vb.inline_edges[i] = ids[i];
  }
  vb.inline_count = static_cast<uint32_t>(inl);
  vb.degree = static_cast<uint32_t>(ids.size());
  if (ids.size() > inl) {
    if (vb.tail == nullptr) {
      vb.tail = new HiNode(options_);
    }
    vb.tail->BulkLoad(ids.subspan(inl));
  } else if (vb.tail != nullptr) {
    vb.tail->Unref();
    vb.tail = nullptr;
  }
}

size_t LSGraph::MergeGroupIntoVertex(VertexBlock& vb, const PreparedBatch& pb,
                                     size_t g, size_t* oob) {
  const VertexId n = num_vertices();
  std::vector<VertexId> incoming;
  incoming.reserve(pb.group_end(g) - pb.group_begin(g));
  for (size_t i = pb.group_begin(g); i < pb.group_end(g); ++i) {
    VertexId dst = pb.edges[i].dst;
    if (dst >= n) {
      ++*oob;
    } else {
      incoming.push_back(dst);  // sorted unique: PrepareBatch deduped
    }
  }
  if (incoming.empty()) {
    return 0;
  }
  std::vector<VertexId> cur;
  cur.reserve(vb.degree);
  for (uint32_t i = 0; i < vb.inline_count; ++i) {
    cur.push_back(vb.inline_edges[i]);
  }
  if (vb.tail != nullptr) {
    vb.tail->Map([&cur](VertexId v) { cur.push_back(v); });
  }
  std::vector<VertexId> merged;
  merged.reserve(cur.size() + incoming.size());
  std::set_union(cur.begin(), cur.end(), incoming.begin(), incoming.end(),
                 std::back_inserter(merged));
  size_t added = merged.size() - cur.size();
  if (added == 0) {
    return 0;
  }
  bool had_tail = vb.tail != nullptr;
  RebuildVertex(vb, merged);
  if (had_tail) {
    stats_.cria_recompressions.fetch_add(1, std::memory_order_relaxed);
  }
  return added;
}

size_t LSGraph::DeleteGroupFromVertex(VertexBlock& vb, const PreparedBatch& pb,
                                      size_t g, size_t* oob) {
  const VertexId n = num_vertices();
  std::vector<VertexId> outgoing;
  outgoing.reserve(pb.group_end(g) - pb.group_begin(g));
  for (size_t i = pb.group_begin(g); i < pb.group_end(g); ++i) {
    VertexId dst = pb.edges[i].dst;
    if (dst >= n) {
      ++*oob;
    } else {
      outgoing.push_back(dst);
    }
  }
  if (outgoing.empty() || vb.degree == 0) {
    return 0;
  }
  std::vector<VertexId> cur;
  cur.reserve(vb.degree);
  for (uint32_t i = 0; i < vb.inline_count; ++i) {
    cur.push_back(vb.inline_edges[i]);
  }
  if (vb.tail != nullptr) {
    vb.tail->Map([&cur](VertexId v) { cur.push_back(v); });
  }
  std::vector<VertexId> rest;
  rest.reserve(cur.size());
  std::set_difference(cur.begin(), cur.end(), outgoing.begin(), outgoing.end(),
                      std::back_inserter(rest));
  size_t removed = cur.size() - rest.size();
  if (removed == 0) {
    return 0;
  }
  bool had_tail = vb.tail != nullptr;
  RebuildVertex(vb, rest);
  if (had_tail) {
    stats_.cria_recompressions.fetch_add(1, std::memory_order_relaxed);
  }
  return removed;
}

bool LSGraph::InsertEdge(VertexId src, VertexId dst) {
  if (src >= num_vertices() || dst >= num_vertices()) {
    oob_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::unique_lock<std::mutex> gate(writer_mu_);
  const MutationCtx mv = BeginUnit();
  bool inserted;
  if (mv.cow) {
    VertexBlock work = CowBegin(src);
    inserted = InsertIntoVertex(work, dst);
    CowPublish(src, work, mv);
  } else {
    inserted = InsertIntoVertex(blocks_[src], dst);
  }
  if (inserted) {
    num_edges_.fetch_add(1, std::memory_order_relaxed);
  }
  EndUnit(mv);
  gate.unlock();
  if (inserted) {
    Edge e{src, dst};
    NotifyBatchApplied(false, std::span<const Edge>(&e, 1));
  }
  return inserted;
}

bool LSGraph::DeleteEdge(VertexId src, VertexId dst) {
  if (src >= num_vertices() || dst >= num_vertices()) {
    oob_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::unique_lock<std::mutex> gate(writer_mu_);
  const MutationCtx mv = BeginUnit();
  bool removed;
  if (mv.cow) {
    VertexBlock work = CowBegin(src);
    removed = DeleteFromVertex(work, dst);
    CowPublish(src, work, mv);
  } else {
    removed = DeleteFromVertex(blocks_[src], dst);
  }
  if (removed) {
    num_edges_.fetch_sub(1, std::memory_order_relaxed);
  }
  EndUnit(mv);
  gate.unlock();
  if (removed) {
    Edge e{src, dst};
    NotifyBatchApplied(true, std::span<const Edge>(&e, 1));
  }
  return removed;
}

bool LSGraph::HasEdge(VertexId src, VertexId dst) const {
  if (src >= num_vertices() || dst >= num_vertices()) {
    return false;
  }
  const VertexBlock& vb = blocks_[src];
  const VertexId* end = vb.inline_edges + vb.inline_count;
  if (std::binary_search(vb.inline_edges, end, dst)) {
    return true;
  }
  return vb.tail != nullptr && vb.tail->Contains(dst);
}

size_t LSGraph::InsertBatch(std::span<const Edge> batch) {
  // Sort/dedup outside the gate; only the apply phase excludes snapshots.
  return InsertPrepared(
      PrepareBatch(std::vector<Edge>(batch.begin(), batch.end()), pool()));
}

size_t LSGraph::InsertPrepared(const PreparedBatch& pb) {
  size_t added;
  {
    std::lock_guard<std::mutex> gate(writer_mu_);
    added = InsertPreparedLocked(pb);
  }
  NotifyBatchApplied(false, pb.edges);
  return added;
}

size_t LSGraph::InsertPreparedLocked(const PreparedBatch& pb) {
  const MutationCtx mv = BeginUnit();
  std::atomic<size_t> added{0};
  const VertexId n = num_vertices();
  ForEachGroupLargestFirst(pb, pool(), [&](size_t g) {
    VertexId src = pb.group_source(g);
    if (src >= n) {
      oob_rejected_.fetch_add(pb.group_end(g) - pb.group_begin(g),
                              std::memory_order_relaxed);
      return;
    }
    size_t local = 0;
    size_t oob = 0;
    VertexBlock work;
    if (mv.cow) {
      work = CowBegin(src);
    }
    VertexBlock& vb = mv.cow ? work : blocks_[src];
    if (options_.compress_leaves &&
        pb.group_end(g) - pb.group_begin(g) >= kGroupMergeMin) {
      // Recompress the whole run once instead of re-encoding a block per
      // edge: decode, set-union, rebuild.
      local = MergeGroupIntoVertex(vb, pb, g, &oob);
    } else {
      for (size_t i = pb.group_begin(g); i < pb.group_end(g); ++i) {
        VertexId dst = pb.edges[i].dst;
        if (dst >= n) {
          ++oob;
          continue;
        }
        local += InsertIntoVertex(vb, dst);
      }
    }
    if (mv.cow) {
      CowPublish(src, work, mv);
    }
    if (oob != 0) {
      oob_rejected_.fetch_add(oob, std::memory_order_relaxed);
    }
    added.fetch_add(local, std::memory_order_relaxed);
  });
  num_edges_.fetch_add(added.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  EndUnit(mv);
  return added.load(std::memory_order_relaxed);
}

size_t LSGraph::DeleteBatch(std::span<const Edge> batch) {
  return DeletePrepared(
      PrepareBatch(std::vector<Edge>(batch.begin(), batch.end()), pool()));
}

size_t LSGraph::DeletePrepared(const PreparedBatch& pb) {
  size_t removed;
  {
    std::lock_guard<std::mutex> gate(writer_mu_);
    removed = DeletePreparedLocked(pb);
  }
  NotifyBatchApplied(true, pb.edges);
  return removed;
}

void LSGraph::AddBatchObserver(BatchObserver* observer) {
  observers_.push_back(observer);
}

void LSGraph::RemoveBatchObserver(BatchObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void LSGraph::NotifyBatchApplied(bool is_delete,
                                 std::span<const Edge> edges) const {
  for (BatchObserver* observer : observers_) {
    observer->OnBatchApplied(is_delete, edges);
  }
}

void LSGraph::NotifyGraphReplaced() const {
  for (BatchObserver* observer : observers_) {
    observer->OnGraphReplaced();
  }
}

size_t LSGraph::DeletePreparedLocked(const PreparedBatch& pb) {
  const MutationCtx mv = BeginUnit();
  std::atomic<size_t> removed{0};
  const VertexId n = num_vertices();
  ForEachGroupLargestFirst(pb, pool(), [&](size_t g) {
    VertexId src = pb.group_source(g);
    if (src >= n) {
      oob_rejected_.fetch_add(pb.group_end(g) - pb.group_begin(g),
                              std::memory_order_relaxed);
      return;
    }
    size_t local = 0;
    size_t oob = 0;
    VertexBlock work;
    if (mv.cow) {
      work = CowBegin(src);
    }
    VertexBlock& vb = mv.cow ? work : blocks_[src];
    if (options_.compress_leaves &&
        pb.group_end(g) - pb.group_begin(g) >= kGroupMergeMin) {
      local = DeleteGroupFromVertex(vb, pb, g, &oob);
    } else {
      for (size_t i = pb.group_begin(g); i < pb.group_end(g); ++i) {
        VertexId dst = pb.edges[i].dst;
        if (dst >= n) {
          ++oob;
          continue;
        }
        local += DeleteFromVertex(vb, dst);
      }
    }
    if (mv.cow) {
      CowPublish(src, work, mv);
    }
    if (oob != 0) {
      oob_rejected_.fetch_add(oob, std::memory_order_relaxed);
    }
    removed.fetch_add(local, std::memory_order_relaxed);
  });
  num_edges_.fetch_sub(removed.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  EndUnit(mv);
  return removed.load(std::memory_order_relaxed);
}

// --- MVCC internals ---

LSGraph::MutationCtx LSGraph::BeginUnit() {
  MutationCtx mv;
  mv.w = ++version_;
  std::lock_guard<std::mutex> reg(snap_mu_);
  if (!pinned_.empty()) {
    mv.cow = true;
    mv.newest_pinned = *pinned_.rbegin();
  }
  return mv;
}

LSGraph::VertexBlock LSGraph::CowBegin(VertexId v) const {
  const VertexBlock& slot = blocks_[v];
  VertexBlock work;
  work.degree = slot.degree;
  work.inline_count = slot.inline_count;
  std::copy(slot.inline_edges, slot.inline_edges + kInlineCap,
            work.inline_edges);
  work.tail = slot.tail != nullptr ? slot.tail->CloneShallow() : nullptr;
  return work;
}

void LSGraph::CowPublish(VertexId v, const VertexBlock& work,
                         const MutationCtx& mv) {
  VertexBlock& slot = blocks_[v];
  uint64_t old_vseq = vseq_[v].v.load(std::memory_order_relaxed);
  HiNode* old_tail = slot.tail;
  VertexVersion* prior_head = chains_[v].head.load(std::memory_order_relaxed);
  bool state_exists =
      slot.degree != 0 || old_tail != nullptr || prior_head != nullptr;
  if (mv.newest_pinned >= old_vseq && state_exists) {
    // A pinned snapshot can still read the pre-image: freeze it on the
    // chain. The node takes over the live tail reference.
    auto* node = new VertexVersion;
    node->vseq = old_vseq;
    node->degree = slot.degree;
    node->inline_count = slot.inline_count;
    std::copy(slot.inline_edges, slot.inline_edges + kInlineCap,
              node->inline_edges);
    node->tail = old_tail;
    node->older.store(prior_head, std::memory_order_relaxed);
    chains_[v].head.store(node, std::memory_order_release);
    if (prior_head == nullptr) {
      RecordChained(v);
    }
  } else if (old_tail != nullptr) {
    // No snapshot can reach the pre-image, but an in-flight reader may
    // still be traversing the old tail: free through the epoch reclaimer.
    RetireTail(old_tail);
  }
  // Publish order (DESIGN.md §12): stamp the version first — a reader that
  // loads the new stamp diverts to the chain, where the pre-image above is
  // already visible (release store) — then the fields. A reader that
  // accepted the old stamp re-validates after staging and discards torn
  // field reads on mismatch.
  vseq_[v].v.store(mv.w, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_release);
  std::atomic_ref<uint32_t>(slot.degree)
      .store(work.degree, std::memory_order_relaxed);
  std::atomic_ref<uint32_t>(slot.inline_count)
      .store(work.inline_count, std::memory_order_relaxed);
  for (size_t i = 0; i < kInlineCap; ++i) {
    std::atomic_ref<VertexId>(slot.inline_edges[i])
        .store(work.inline_edges[i], std::memory_order_relaxed);
  }
  std::atomic_ref<HiNode*>(slot.tail)
      .store(work.tail, std::memory_order_release);
}

void LSGraph::RecordChained(VertexId v) {
  std::lock_guard<std::mutex> lock(chained_mu_);
  chained_.push_back(v);
}

void LSGraph::RetireTail(HiNode* tail) {
  stats_.deferred_frees.fetch_add(1, std::memory_order_relaxed);
  EpochManager::Global().Retire(
      tail, [](void* p) { static_cast<HiNode*>(p)->Unref(); });
}

void LSGraph::PruneChains() {
  std::vector<uint64_t> pins;
  {
    std::lock_guard<std::mutex> reg(snap_mu_);
    pins.assign(pinned_.begin(), pinned_.end());
  }
  std::lock_guard<std::mutex> lock(chained_mu_);
  for (size_t i = 0; i < chained_.size();) {
    VertexId v = chained_[i];
    VertexVersion* node = chains_[v].head.load(std::memory_order_relaxed);
    // A chain node covers snapshot versions S with node->vseq <= S < upper,
    // where upper is the vseq of the next-newer state. Keep it iff a pin
    // falls in that window; drop it otherwise. Dropped nodes are epoch-
    // retired with their fields intact, because an in-flight reader may be
    // walking through them right now — only kept nodes are relinked.
    uint64_t upper = vseq_[v].v.load(std::memory_order_relaxed);
    VertexVersion* new_head = nullptr;
    VertexVersion* kept_prev = nullptr;
    while (node != nullptr) {
      VertexVersion* older = node->older.load(std::memory_order_relaxed);
      auto it = std::lower_bound(pins.begin(), pins.end(), node->vseq);
      bool needed = it != pins.end() && *it < upper;
      if (needed) {
        if (kept_prev != nullptr) {
          kept_prev->older.store(node, std::memory_order_release);
        } else {
          new_head = node;
        }
        kept_prev = node;
        upper = node->vseq;
      } else {
        stats_.deferred_frees.fetch_add(1, std::memory_order_relaxed);
        EpochManager::Global().Retire(node, [](void* p) {
          auto* n = static_cast<VertexVersion*>(p);
          if (n->tail != nullptr) {
            n->tail->Unref();
          }
          delete n;
        });
      }
      node = older;
    }
    if (kept_prev != nullptr) {
      kept_prev->older.store(nullptr, std::memory_order_release);
    }
    chains_[v].head.store(new_head, std::memory_order_release);
    if (new_head != nullptr) {
      ++i;
    } else {
      chained_[i] = chained_.back();
      chained_.pop_back();
    }
  }
}

void LSGraph::EndUnit(const MutationCtx& mv) {
  // chained_ is only mutated under the writer gate (held here), so the
  // unlocked emptiness probe is safe; it keeps the never-snapshotted path
  // free of any extra locking.
  if (mv.cow || !chained_.empty()) {
    PruneChains();
    EpochManager::Global().TryReclaim();
  }
}

std::shared_ptr<const GraphSnapshot> LSGraph::Snapshot() const {
  std::lock_guard<std::mutex> gate(writer_mu_);
  uint64_t ver = version_;
  VertexId nv = num_vertices();
  EdgeCount ne = num_edges();
  {
    std::lock_guard<std::mutex> reg(snap_mu_);
    pinned_.insert(ver);
  }
  stats_.snapshots_live.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const GraphSnapshot>(
      new GraphSnapshot(this, ver, nv, ne));
}

void LSGraph::ReleaseSnapshotVersion(uint64_t version) const {
  {
    std::lock_guard<std::mutex> reg(snap_mu_);
    auto it = pinned_.find(version);
    assert(it != pinned_.end());
    pinned_.erase(it);
  }
  stats_.snapshots_live.fetch_sub(1, std::memory_order_relaxed);
  // Opportunistic reclamation. If an update batch holds the gate, skipping
  // is safe: the writer prunes at its next batch boundary.
  LSGraph* self = const_cast<LSGraph*>(this);
  if (self->writer_mu_.try_lock()) {
    std::lock_guard<std::mutex> gate(self->writer_mu_, std::adopt_lock);
    self->PruneChains();
    EpochManager::Global().TryReclaim();
  }
}

bool LSGraph::StageLive(VertexId v, uint64_t s1,
                        std::vector<VertexId>* out) const {
  // Tear-proof staging of the live block: atomic field reads, then a
  // version re-check. atomic_ref needs non-const lvalues; the loads do not
  // mutate.
  VertexBlock& slot = const_cast<VertexBlock&>(blocks_[v]);
  uint32_t ic = std::atomic_ref<uint32_t>(slot.inline_count)
                    .load(std::memory_order_relaxed);
  if (ic > kInlineCap) {
    return false;  // torn metadata; the chain has the consistent state
  }
  for (uint32_t i = 0; i < ic; ++i) {
    out->push_back(std::atomic_ref<VertexId>(slot.inline_edges[i])
                       .load(std::memory_order_relaxed));
  }
  HiNode* tail =
      std::atomic_ref<HiNode*>(slot.tail).load(std::memory_order_acquire);
  if (tail != nullptr) {
    tail->Map([out](VertexId u) { out->push_back(u); });
  }
  // The acquire fence keeps the staging loads above the validation load;
  // on mismatch the caller falls back to the chain, whose head the writer
  // release-published before moving the stamp.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (vseq_[v].v.load(std::memory_order_acquire) != s1) {
    out->clear();
    return false;
  }
  return true;
}

size_t LSGraph::SnapshotDegree(uint64_t snap, VertexId v) const {
  EpochManager::Guard guard;
  uint64_t s1 = vseq_[v].v.load(std::memory_order_acquire);
  if (s1 <= snap) {
    VertexBlock& slot = const_cast<VertexBlock&>(blocks_[v]);
    uint32_t d =
        std::atomic_ref<uint32_t>(slot.degree).load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (vseq_[v].v.load(std::memory_order_acquire) == s1) {
      return d;
    }
  }
  const VertexVersion* node = FindVersion(snap, v);
  return node != nullptr ? node->degree : 0;
}

bool LSGraph::SnapshotHasEdge(uint64_t snap, VertexId src,
                              VertexId dst) const {
  EpochManager::Guard guard;
  uint64_t s1 = vseq_[src].v.load(std::memory_order_acquire);
  if (s1 <= snap) {
    VertexBlock& slot = const_cast<VertexBlock&>(blocks_[src]);
    uint32_t ic = std::atomic_ref<uint32_t>(slot.inline_count)
                      .load(std::memory_order_relaxed);
    if (ic <= kInlineCap) {
      bool found = false;
      for (uint32_t i = 0; i < ic && !found; ++i) {
        found = std::atomic_ref<VertexId>(slot.inline_edges[i])
                    .load(std::memory_order_relaxed) == dst;
      }
      HiNode* tail =
          std::atomic_ref<HiNode*>(slot.tail).load(std::memory_order_acquire);
      if (!found && tail != nullptr) {
        found = tail->Contains(dst);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (vseq_[src].v.load(std::memory_order_acquire) == s1) {
        return found;
      }
    }
  }
  const VertexVersion* node = FindVersion(snap, src);
  if (node == nullptr) {
    return false;
  }
  for (uint32_t i = 0; i < node->inline_count; ++i) {
    if (node->inline_edges[i] == dst) {
      return true;
    }
  }
  return node->tail != nullptr && node->tail->Contains(dst);
}

const LSGraph::VertexVersion* LSGraph::FindVersion(uint64_t snap,
                                                   VertexId v) const {
  // Newest-first walk: the first node with vseq <= snap is the state that
  // was live when `snap` was pinned. Null means the vertex was empty at
  // that version (publishing skips preserving empty chainless state).
  const VertexVersion* node = chains_[v].head.load(std::memory_order_acquire);
  while (node != nullptr && node->vseq > snap) {
    node = node->older.load(std::memory_order_acquire);
  }
  return node;
}

std::vector<VertexId> LSGraph::TakeScratch() {
  if (scratch_pool.empty()) {
    return {};
  }
  std::vector<VertexId> s = std::move(scratch_pool.back());
  scratch_pool.pop_back();
  s.clear();
  return s;
}

void LSGraph::ReturnScratch(std::vector<VertexId> scratch) {
  if (scratch_pool.size() < 4) {
    scratch_pool.push_back(std::move(scratch));
  }
}

// --- End MVCC internals ---

size_t LSGraph::memory_footprint() const {
  // Adjacency structures only: the fixed 16 bytes/vertex of MVCC metadata
  // (vseq_ + chains_) is excluded so the bytes/edge telemetry stays
  // comparable across snapshot and non-snapshot configurations.
  return blocks_.capacity() * sizeof(VertexBlock) + adjacency_bytes();
}

size_t LSGraph::index_bytes() const {
  size_t total = 0;
  for (const VertexBlock& vb : blocks_) {
    if (vb.tail != nullptr) {
      total += vb.tail->index_bytes();
    }
  }
  return total;
}

size_t LSGraph::adjacency_bytes() const {
  size_t total = 0;
  for (const VertexBlock& vb : blocks_) {
    if (vb.tail != nullptr) {
      total += vb.tail->memory_footprint();
    }
  }
  return total;
}

EdgeCount LSGraph::tail_edges() const {
  EdgeCount total = 0;
  for (const VertexBlock& vb : blocks_) {
    if (vb.tail != nullptr) {
      total += vb.tail->size();
    }
  }
  return total;
}

bool LSGraph::CheckInvariants() const {
  EdgeCount total = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const VertexBlock& vb = blocks_[v];
    const VertexId* end = vb.inline_edges + vb.inline_count;
    if (!std::is_sorted(vb.inline_edges, end) ||
        std::adjacent_find(vb.inline_edges, end) != end) {
      return false;
    }
    size_t tail_size = vb.tail != nullptr ? vb.tail->size() : 0;
    if (vb.tail != nullptr && tail_size == 0) {
      return false;  // drained tails must be freed, not retained
    }
    if (vb.degree != vb.inline_count + tail_size) {
      return false;
    }
    if (tail_size != 0) {
      if (vb.inline_count != kInlineCap) {
        return false;  // tail may only exist once the inline run is full
      }
      if (vb.tail->First() <= end[-1]) {
        return false;
      }
      if (!vb.tail->CheckInvariants()) {
        return false;
      }
    }
    total += vb.degree;
  }
  return total == num_edges();
}

}  // namespace lsg
