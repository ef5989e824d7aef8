// Maintained connected-component labels (DESIGN.md §15).
//
// The maintained invariant matches ConnectedComponents(): every vertex is
// labeled with the minimum vertex id of its (weak) component. Beside the
// labels the query keeps a spanning forest of each component, rooted at
// that minimum id: every tree edge is a graph edge, and every parent chain
// ends at its component's root. Label and parent share one 64-bit word per
// vertex (label high, parent low; a root holds (v, v)), so the flood's CAS
// changes both at once. With two arrays, a late parent write from a
// superseded lowering could leave v -> u -> v.
//
// Insertions whose endpoints carry different labels seed min-label
// flooding; a vertex lowered through edge (u, v) takes u as its parent.
// Deletions come first. Deleting a non-tree edge costs a word load per
// endpoint. Deleting a tree edge (parent[v] == u) cuts off v's subtree,
// which is walked serially: the children of x are the neighbors w with
// parent[w] == x. Each cut vertex is reset to its own root, then takes the
// smallest label among its neighbors outside the cut; their paths to the
// root are intact, so that edge replaces the lost one. Every cut vertex
// then seeds the flood, which re-attaches the subtree or, on a real split,
// floods the cut-off side with that side's own minimum. The side holding
// the root keeps its labels. A cut that outgrows the fallback fraction
// stops the walk and the forest is rebuilt from scratch.
//
// Requires the symmetric discipline (both orientations of each edge
// stored, as the repo's evaluation graphs are): weak connectivity, the
// child scan and the flood all read edges in both directions.
#ifndef SRC_ANALYTICS_INCREMENTAL_INCREMENTAL_CC_H_
#define SRC_ANALYTICS_INCREMENTAL_INCREMENTAL_CC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/analytics/incremental/incremental.h"
#include "src/core/edgemap.h"
#include "src/parallel/thread_pool.h"
#include "src/util/graph_types.h"

namespace lsg {

class IncrementalCC {
 public:
  explicit IncrementalCC(ThreadPool& pool, IncrementalOptions options = {})
      : pool_(&pool), options_(options) {
    if (!options_.symmetric) {
      throw std::invalid_argument(
          "IncrementalCC requires IncrementalOptions::symmetric");
    }
  }

  const IncrementalStats& stats() const { return stats_; }
  const IncrementalOptions& options() const { return options_; }

  void Invalidate() { initialized_ = false; }

  VertexId label(VertexId v) const {
    return v < word_.size() ? Label(word_.Load(v)) : v;
  }

  std::vector<VertexId> Labels() const {
    std::vector<VertexId> out(word_.size());
    for (size_t v = 0; v < out.size(); ++v) {
      out[v] = Label(word_.Load(v));
    }
    return out;
  }

  template <typename G>
  void Init(const G& g) {
    EnsureUniverse(g.num_vertices());
    Rebuild(g);
    initialized_ = true;
  }

  // Maintains labels and forest across one applied batch (deletion delta
  // first; see the file comment for the cut/re-attach and merge paths).
  template <typename G>
  void Apply(const G& g, std::span<const Edge> inserted,
             std::span<const Edge> deleted) {
    ++stats_.batches;
    VertexId n = g.num_vertices();
    EnsureUniverse(n);
    if (!initialized_) {
      Rebuild(g);
      initialized_ = true;
      return;
    }
    size_t dirty_cap = static_cast<size_t>(options_.fallback_fraction *
                                           static_cast<double>(n));

    // ---- Phase 1: deletion delta — cut off the subtree below each deleted
    // tree edge and pull each cut vertex onto a replacement edge. ----
    seeds_.clear();
    seed_stamps_.NextRound();
    for (const Edge& e : deleted) {
      if (e.src >= n || e.dst >= n || e.src == e.dst) {
        continue;
      }
      // An edge the graph never held is no tree edge, so it cuts nothing.
      CutIfChild(e.dst, e.src);
      CutIfChild(e.src, e.dst);
    }
    if (!WalkCutSubtrees(g, dirty_cap)) {
      Fallback(g, seeds_.size());
      return;
    }
    for (VertexId x : seeds_) {
      Reattach(g, x);
    }

    // ---- Phase 2: insertions that bridge differently-labeled vertices
    // seed both endpoints (reads post-cut labels). ----
    for (const Edge& e : inserted) {
      if (e.src >= n || e.dst >= n) {
        continue;
      }
      if (label(e.src) != label(e.dst)) {
        Seed(e.src);
        Seed(e.dst);
      }
    }
    stats_.last_dirty = seeds_.size();
    if (seeds_.size() > dirty_cap) {
      Fallback(g, seeds_.size());
      return;
    }

    // ---- Phase 3: min-label flooding from the seeds to a fixpoint. ----
    stats_.last_fallback = false;
    ++stats_.incremental_runs;
    if (!seeds_.empty()) {
      stats_.vertices_touched += Propagate(
          g, VertexSubset::FromVertices(n, std::move(seeds_)));
      seeds_ = {};
    }
  }

 private:
  static VertexId Label(uint64_t word) {
    return static_cast<VertexId>(word >> 32);
  }
  static VertexId Parent(uint64_t word) {
    return static_cast<VertexId>(word);
  }
  static uint64_t Word(VertexId label, VertexId parent) {
    return (uint64_t{label} << 32) | parent;
  }

  void EnsureUniverse(VertexId n) {
    size_t old = word_.size();
    word_.Grow(n, 0);
    for (size_t v = old; v < n; ++v) {
      VertexId id = static_cast<VertexId>(v);
      word_.Store(v, Word(id, id));  // new vertices: own island
    }
    seed_stamps_.Grow(n);
    queued_.Grow(n);
  }

  void Seed(VertexId v) {
    if (seed_stamps_.TryClaim(v)) {
      seeds_.push_back(v);
    }
  }

  // v hangs off the tree by edge (v, u): it and its subtree are cut off.
  void CutIfChild(VertexId v, VertexId u) {
    if (Parent(word_.Load(v)) == u) {
      Seed(v);
    }
  }

  // Extends seeds_ (the cut roots) to every vertex below them; in this
  // phase a claimed seed stamp means "cut". Returns false once the cut
  // passes the dirty cap.
  template <typename G>
  bool WalkCutSubtrees(const G& g, size_t dirty_cap) {
    for (size_t head = 0; head < seeds_.size() && seeds_.size() <= dirty_cap;
         ++head) {
      VertexId x = seeds_[head];
      g.map_neighbors(x, [this, x, dirty_cap](VertexId w) {
        if (Parent(word_.Load(w)) == x) {
          Seed(w);
        }
        return seeds_.size() <= dirty_cap;
      });
    }
    return seeds_.size() <= dirty_cap;
  }

  // Resets cut vertex x to its own root, unless a neighbor outside the cut
  // offers a smaller label: the smallest such neighbor becomes its parent.
  template <typename G>
  void Reattach(const G& g, VertexId x) {
    uint64_t best = Word(x, x);
    g.map_neighbors(x, [this, &best](VertexId w) {
      if (!seed_stamps_.Claimed(w)) {
        VertexId lw = Label(word_.Load(w));
        if (lw < Label(best)) {
          best = Word(lw, w);
        }
      }
    });
    word_.Store(x, best);
  }

  // Same CAS-min update as ConnectedComponents(), carrying the parent in
  // the low half, frontier-seeded and deduplicated with round stamps
  // instead of an O(n) bitset clear.
  template <typename G>
  size_t Propagate(const G& g, VertexSubset frontier) {
    size_t touched = 0;
    while (!frontier.empty()) {
      touched += frontier.size();
      queued_.NextRound();
      frontier = EdgeMap(
          g, frontier,
          [this](VertexId u, VertexId v) {
            VertexId mine = Label(word_.Load(u));
            uint64_t theirs = word_.Load(v);
            bool lowered = false;
            while (mine < Label(theirs)) {
              if (word_[v].compare_exchange_weak(theirs, Word(mine, u),
                                                 std::memory_order_relaxed)) {
                lowered = true;
                break;
              }
            }
            return lowered && queued_.TryClaim(v);
          },
          [](VertexId) { return true; }, *pool_);
    }
    return touched;
  }

  // Init and fallback: every vertex its own root, then one flood from all
  // of them labels the components and builds the forest in the same pass.
  template <typename G>
  void Rebuild(const G& g) {
    VertexId n = g.num_vertices();
    pool_->ParallelForChunked(0, n, [this](size_t lo, size_t hi, size_t) {
      for (size_t v = lo; v < hi; ++v) {
        VertexId id = static_cast<VertexId>(v);
        word_.Store(v, Word(id, id));
      }
    });
    Propagate(g, VertexSubset::All(n));
  }

  template <typename G>
  void Fallback(const G& g, size_t dirty) {
    stats_.last_dirty = dirty;
    stats_.last_fallback = true;
    ++stats_.fallbacks;
    Rebuild(g);
  }

  ThreadPool* pool_;
  IncrementalOptions options_;
  IncrementalStats stats_;
  bool initialized_ = false;

  incremental_internal::AtomicArray<uint64_t> word_;  // (label, parent)
  // Persistent scratch — cleared, never reallocated, per batch.
  incremental_internal::RoundStamps seed_stamps_;
  incremental_internal::RoundStamps queued_;
  std::vector<VertexId> seeds_;
};

}  // namespace lsg

#endif  // SRC_ANALYTICS_INCREMENTAL_INCREMENTAL_CC_H_
