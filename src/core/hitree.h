// HITree: the Hybrid Indexed Tree (paper §3.2, Algorithms 1 & 2), plus the
// adjacency-tail polymorphism of §4.1.
//
// HiNode is one adjacency tail. Its representation adapts to its size:
//   - sorted array        (size <= A; no index, two cache lines)
//   - RIA                 (size <= M; redundant block index)
//   - LIA-rooted HITree   (size >  M; learned index, children are HiNodes)
// Upgrades happen in place: an array that outgrows A becomes a RIA; a RIA
// whose bounded horizontal movement fails re-bulkloads, and if it has grown
// past M that re-bulkload produces a LIA root (the "RIA to HITree changes"
// counted in §6.2).
//
// Lia is a learned indexed array: a gapped slot array positioned by a linear
// model, a 2-bit type per slot (Unused / Edge / Block / Child), and child
// HiNodes reached through Child blocks. Position conflicts first move data
// horizontally within one cache-line block (B entries); only when a block
// overflows is a child created (vertical movement), which is what bounds the
// movement distance of high-degree vertices.
//
// Not thread-safe; single writer per instance (one vertex per thread, §5).
// For MVCC snapshots (DESIGN.md §12) HiNodes carry an intrusive refcount:
// a pinned snapshot shares subtrees with the live version, and a writer
// descending into a shared node clones it first (copy-on-write), so every
// node a snapshot can reach stays immutable until its last reference drops.
#ifndef SRC_CORE_HITREE_H_
#define SRC_CORE_HITREE_H_

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "src/core/cria.h"
#include "src/core/options.h"
#include "src/core/ria.h"
#include "src/util/bitvector.h"
#include "src/util/cache.h"
#include "src/util/graph_types.h"

namespace lsg {

class HiNode;

// Learned Indexed Array (internal node of a HITree).
class Lia {
 public:
  // Bulk-loads from sorted unique ids (Algorithm 1, LIA branch).
  Lia(const Options& options, std::span<const VertexId> sorted_ids);
  ~Lia();

  Lia(const Lia&) = delete;
  Lia& operator=(const Lia&) = delete;

  bool Insert(VertexId id);
  bool Delete(VertexId id);
  bool Contains(VertexId id) const;

  size_t size() const { return size_; }

  // Smallest id; requires size() > 0.
  VertexId First() const;

  // Applies f(id) in ascending order (the Traverse operation); false iff f
  // stopped the scan (Visit).
  template <typename F>
  bool Map(F&& f) const;

  size_t memory_footprint() const;
  // Model + type bits + child index overhead (Table 3's I/L accounting).
  size_t index_bytes() const;

  bool CheckInvariants() const;

 private:
  size_t Predict(VertexId id) const;
  size_t BlockOf(size_t pos) const { return pos / options_.block_size; }

  friend class HiNode;
  // Shallow-copy clone for COW: scalar state and slot arrays are copied,
  // children are shared by bumping their refcounts (the writer re-clones a
  // shared child if and when it descends into it).
  Lia(const Lia& other, std::nullptr_t share_children_tag);

  // Gathers the data ids resident in block b (E and B slots), ascending.
  void GatherBlock(size_t b, std::vector<VertexId>* out) const;
  // Returns children_[idx], cloning it first if it is shared with a pinned
  // snapshot, so the caller may mutate the result.
  HiNode* MutableChild(uint32_t idx);
  // Places `child` in a children_ slot (reusing a detached one if any) and
  // returns its index. Takes ownership of the reference.
  uint32_t AllocChild(HiNode* child);
  // Rewrites block b as a packed run of `ids` (B entries) — requires
  // ids.size() <= block_size — or as a child pointer when larger.
  void StoreBlock(size_t b, std::span<const VertexId> ids);
  void MakeChild(size_t b, std::span<const VertexId> ids);
  // Clears every block sharing child index `child` back to Unused.
  void DetachChild(size_t b, uint32_t child);

  Options options_;
  std::vector<VertexId> slots_;
  TypeVector types_;
  double slope_ = 0.0;
  double intercept_ = 0.0;
  // Raw refcounted pointers (Ref/Unref), not unique_ptr: COW clones of this
  // Lia share children with the original until a writer descends into one.
  std::vector<HiNode*> children_;
  // Indices of children_ slots vacated by DetachChild, reused by AllocChild
  // so delete/insert churn cannot grow children_ without bound.
  std::vector<uint32_t> free_children_;
  size_t size_ = 0;
};

// One adjacency tail with size-adaptive representation.
class HiNode {
 public:
  // kCria is the compressed leaf (Options::compress_leaves): it replaces
  // both kArray and kRia below M, and serves as the leaf representation of
  // Lia children, which inherit the option.
  enum class Kind { kArray, kRia, kLia, kCria };

  explicit HiNode(const Options& options);
  ~HiNode();

  HiNode(const HiNode&) = delete;
  HiNode& operator=(const HiNode&) = delete;

  // Intrusive refcount for MVCC sharing. A fresh node starts at one
  // reference; Unref deletes at zero. Shared() means a snapshot (or a
  // pre-image chain) still holds the node, so it must not be mutated in
  // place — clone it first.
  void Ref() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() const {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete this;
    }
  }
  bool Shared() const { return refs_.load(std::memory_order_acquire) > 1; }

  // Copy-on-write clone: scalar state and leaf payloads are deep-copied
  // (including the Cria's single [anchors|meta|payload] allocation, so the
  // clone never aliases the live bytes); a Lia's children are shared by
  // refcount. Counts into CoreStats::cow_copies.
  HiNode* CloneShallow() const;

  // Rebuilds from sorted unique ids, choosing the representation by size.
  // `force_flat` pins the node to RIA even above M (used to break model
  // degeneracy during recursive bulk loads).
  void BulkLoad(std::span<const VertexId> sorted_ids, bool force_flat = false);

  bool Insert(VertexId id);
  bool Delete(VertexId id);
  bool Contains(VertexId id) const;

  size_t size() const;
  Kind kind() const { return kind_; }

  // Starts loading what an update reads right after this node: the id
  // buffer of an array tail, or the Ria/Lia/Cria object. The last stage of
  // the batch apply pipeline (DESIGN.md §7); changes nothing.
  void PrefetchPayload() const {
    switch (kind_) {
      case Kind::kArray:
        PrefetchLines(array_.data(), array_.size() * sizeof(VertexId));
        return;
      case Kind::kRia:
        PrefetchLines(ria_.get(), sizeof(Ria));
        return;
      case Kind::kLia:
        PrefetchLines(lia_.get(), sizeof(Lia));
        return;
      case Kind::kCria:
        PrefetchLines(cria_.get(), sizeof(Cria));
        return;
    }
  }

  // Smallest id; requires size() > 0.
  VertexId First() const;

  // Traverse: applies f(id) in ascending order; false iff f stopped the
  // scan (Visit).
  template <typename F>
  bool Map(F&& f) const {
    switch (kind_) {
      case Kind::kArray:
        for (VertexId v : array_) {
          if (!Visit(f, v)) {
            return false;
          }
        }
        return true;
      case Kind::kRia:
        return ria_->Map(f);
      case Kind::kLia:
        return lia_->Map(f);
      case Kind::kCria:
        return cria_->Map(f);
    }
    return true;
  }

  std::vector<VertexId> Decode() const {
    std::vector<VertexId> out;
    out.reserve(size());
    Map([&out](VertexId v) { out.push_back(v); });
    return out;
  }

  size_t memory_footprint() const;
  size_t index_bytes() const;
  bool CheckInvariants() const;

 private:
  // Downward conversions (the delete-path mirror of the upgrade ladder):
  // re-bulkloads once the node shrinks past half the upgrade threshold, so
  // a delete-heavy stream releases index structures instead of pinning the
  // largest representation the vertex ever reached. The half-threshold
  // hysteresis keeps an insert/delete flutter at a boundary from thrashing.
  void MaybeDowngrade();

  Options options_;
  Kind kind_ = Kind::kArray;
  std::vector<VertexId> array_;
  std::unique_ptr<Ria> ria_;
  std::unique_ptr<Lia> lia_;
  std::unique_ptr<Cria> cria_;
  mutable std::atomic<uint32_t> refs_{1};
};

template <typename F>
bool Lia::Map(F&& f) const {
  size_t bks = options_.block_size;
  uint32_t prev_child = ~uint32_t{0};
  for (size_t ba = 0; ba < slots_.size(); ba += bks) {
    if (types_.Get(ba) == SlotType::kChild) {
      uint32_t child = slots_[ba];
      if (child != prev_child) {
        if (!children_[child]->Map(f)) {
          return false;
        }
        prev_child = child;
      }
      continue;
    }
    prev_child = ~uint32_t{0};
    for (size_t i = ba; i < ba + bks; ++i) {
      SlotType t = types_.Get(i);
      if ((t == SlotType::kEdge || t == SlotType::kBlock) &&
          !Visit(f, slots_[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace lsg

#endif  // SRC_CORE_HITREE_H_
