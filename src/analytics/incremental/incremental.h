// Maintained-query subsystem (DESIGN.md §15): analytics that stay fresh
// across update batches instead of recomputing from scratch.
//
// The paper's central locality argument (§3.1) is that AL-style random
// vertex access exists to make *incremental* computation cheap: after a
// batch lands, only the region the batch actually shook needs revisiting.
// Each maintained query here keeps persistent per-vertex state (allocated
// once, grown only when the vertex universe grows — never reallocated per
// batch), derives a delta frontier from the batch's endpoints, relaxes to a
// fixpoint over just the affected subgraph, and falls back to the existing
// full kernel in src/analytics/ when the dirty set crosses a fraction of
// the universe (at which point a from-scratch pass is cheaper than chasing
// the delta).
//
// Contract (the "maintained query" correctness framing): after every
// Apply(g, inserted, deleted) the query's result equals the corresponding
// full kernel run on g. `inserted`/`deleted` must be exactly the edge sets
// the graph applied since the previous Apply; a mixed batch is processed
// deletion-delta first, so seed selection never reads levels that a
// deletion already invalidated.
#ifndef SRC_ANALYTICS_INCREMENTAL_INCREMENTAL_H_
#define SRC_ANALYTICS_INCREMENTAL_INCREMENTAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/util/graph_types.h"

namespace lsg {

struct IncrementalOptions {
  // Dirty fraction (affected vertices / universe) beyond which the query
  // abandons delta maintenance for this batch and runs the full kernel.
  // The delta path wins when few vertices shake; past this point the
  // from-scratch kernel's streaming passes are cheaper.
  double fallback_fraction = 0.05;

  // The maintained graph stores both orientations of every edge
  // (symmetrized, as the paper's evaluation graphs are). IncrementalCC
  // requires it and its constructor throws std::invalid_argument without
  // it: weak connectivity, its forest's child scan and its flood all read
  // edges both ways. IncrementalBfs's deletion support needs it too (the
  // support check reads a vertex's neighbors as in-neighbors). With
  // symmetric = false, IncrementalBfs stays push-only incremental for
  // insertions and falls back to the full kernel on any deletion that
  // could detach part of the BFS tree.
  bool symmetric = true;
};

struct IncrementalStats {
  uint64_t batches = 0;           // Apply calls observed
  uint64_t incremental_runs = 0;  // batches maintained via the delta path
  uint64_t fallbacks = 0;         // batches that ran the full kernel
  uint64_t vertices_touched = 0;  // cumulative delta-path frontier volume
  size_t last_dirty = 0;          // dirty-set size of the last batch
  bool last_fallback = false;
};

namespace incremental_internal {

// Persistent atomic per-vertex state. Sized once and grown only when the
// vertex universe grows; Apply never reallocates it — the O(n)
// copy-per-round the old examples/incremental_bfs.cpp paid is exactly what
// this type exists to avoid.
template <typename T>
class AtomicArray {
 public:
  size_t size() const { return size_; }

  std::atomic<T>& operator[](size_t i) { return data_[i]; }
  const std::atomic<T>& operator[](size_t i) const { return data_[i]; }

  T Load(size_t i) const { return data_[i].load(std::memory_order_relaxed); }
  void Store(size_t i, T v) {
    data_[i].store(v, std::memory_order_relaxed);
  }

  // Grows to n, preserving existing values and filling new slots with
  // `fill`. Shrinking never happens (vertex universes only grow).
  void Grow(size_t n, T fill) {
    if (n <= size_) {
      return;
    }
    std::unique_ptr<std::atomic<T>[]> grown(new std::atomic<T>[n]);
    for (size_t i = 0; i < size_; ++i) {
      grown[i].store(data_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    for (size_t i = size_; i < n; ++i) {
      grown[i].store(fill, std::memory_order_relaxed);
    }
    data_ = std::move(grown);
    size_ = n;
  }

  void Fill(T v) {
    for (size_t i = 0; i < size_; ++i) {
      data_[i].store(v, std::memory_order_relaxed);
    }
  }

 private:
  std::unique_ptr<std::atomic<T>[]> data_;
  size_t size_ = 0;
};

// Monotone round-stamp dedup: TryClaim(v) succeeds exactly once per round,
// with no O(n) clear between rounds (the stamp generation advances
// instead). 64-bit stamps never wrap in practice.
class RoundStamps {
 public:
  void Grow(size_t n) { stamp_.Grow(n, 0); }

  void NextRound() { ++round_; }

  bool TryClaim(VertexId v) {
    uint64_t cur = stamp_.Load(v);
    while (cur != round_) {
      if (stamp_[v].compare_exchange_weak(cur, round_,
                                          std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  bool Claimed(VertexId v) const { return stamp_.Load(v) == round_; }

 private:
  AtomicArray<uint64_t> stamp_;
  uint64_t round_ = 0;
};

}  // namespace incremental_internal

}  // namespace lsg

#endif  // SRC_ANALYTICS_INCREMENTAL_INCREMENTAL_H_
