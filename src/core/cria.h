// Compressed Redundant Indexed Array ("CRIA"): the compressed leaf mode of
// LSGraph's RIA/HITree adjacency (ROADMAP item 3).
//
// Layout mirrors the RIA: the sorted id set is carved into fixed-capacity
// byte blocks with a redundant index holding the first id ("anchor") of
// every block — but inside a block the ids after the anchor are stored as
// delta-varints instead of raw 4-byte words (the encoding Aspen/PaC-tree
// use, src/ctree/compressed_chunk.h). The raw anchors double as
// block-sparse skip entries: a point lookup binary-searches the contiguous
// index and decodes at most one block, never the whole run. Traversal
// decodes while scanning — Map streams ids straight to the caller,
// so EdgeMap and every analytics kernel run against compressed leaves
// unchanged.
//
// Everything lives in ONE allocation. A Cria is instantiated per adjacency
// tail, so fixed overhead is paid per vertex; three separate vectors
// (anchors, occupancy, payload) would triple the allocator traffic and add
// ~100 bytes of vector headers per tail — enough to erase the varint
// savings on medium-degree graphs. Instead `data_` packs
//
//   [ anchors: nb x 4B | meta: nb x {u16 count, u16 used} | payload blocks ]
//
// with block b's payload at payload_offset() + b * block_bytes_. The
// trailing block is allocated only up to its payload (WriteBlock grows it
// on demand), so a one-block set pays for its bytes, not a whole block of
// slack. The block count only changes inside BulkLoad, which rebuilds the
// whole layout; in-place updates never shift the section offsets.
//
// Updates re-encode only the touched block. A block whose payload outgrows
// its byte capacity first redistributes its ids over a window of adjacent
// blocks (the RIA's regulated horizontal movement, applied to bytes),
// bounded to log2(num_blocks) blocks per side; past the bound the caller
// rebuilds with slack (alpha acts as the byte fill-ratio target, exactly as
// it pads raw RIA slots). Deletes can only shrink a payload; an emptied
// block or gross under-occupancy triggers a contraction rebuild that
// releases memory.
//
// Not thread-safe; single writer per instance. Concurrent read-only
// traversal (Map/Contains) is safe, matching RIA.
#ifndef SRC_CORE_CRIA_H_
#define SRC_CORE_CRIA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "src/core/options.h"
#include "src/ctree/compressed_chunk.h"
#include "src/util/graph_types.h"

namespace lsg {

struct CriaStats {
  uint32_t blocks_reencoded = 0;   // single-block decode+re-encode writes
  uint32_t redistributions = 0;    // window repacks (horizontal movement)
  uint32_t rebuilds = 0;           // full re-bulkloads (expansion / merge)
  uint32_t contractions = 0;       // delete-side rebuilds releasing slots
};

class Cria {
 public:
  explicit Cria(const Options& options);
  ~Cria();

  // COW clone for MVCC snapshots (DESIGN.md §12): deep-copies the single
  // [anchors|meta|payload] allocation so the clone never aliases the live
  // bytes — a later recompaction/redistribution of the original cannot
  // invalidate a pinned snapshot's scan — and reports its own footprint
  // into the resident gauge.
  Cria(const Cria& other);
  Cria& operator=(const Cria&) = delete;

  // Rebuilds from sorted unique ids. Blocks are packed to a payload target
  // of block_bytes / alpha, leaving byte slack to absorb inserts.
  void BulkLoad(std::span<const VertexId> sorted_ids);

  enum class InsertResult {
    kInserted,
    kDuplicate,
    // The id's home block is byte-full and no window within the movement
    // bound can absorb the repack; the caller decides between a slack
    // rebuild and conversion to a HITree (the RIA ladder, Algorithm 2).
    kNeedExpand,
  };

  // Inserts without ever growing the byte array: block-local re-encode
  // first, then windowed redistribution within the movement bound.
  InsertResult TryInsert(VertexId id);

  // TryInsert + slack rebuild on kNeedExpand.
  bool Insert(VertexId id);
  bool Delete(VertexId id);
  bool Contains(VertexId id) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_blocks() const { return num_blocks_; }
  // Encoded payload bytes in use (excludes anchors, slack, and metadata).
  size_t payload_bytes() const { return used_total_; }

  // Smallest id; requires !empty().
  VertexId First() const { return anchor(0); }

  // Applies f(id) in ascending order, decoding while scanning; false iff f
  // stopped the scan (Visit). The visitor's return type picks the decoder.
  //
  // A bool visitor may stop at any id, so it gets the serial decoder, which
  // stops mid-block and counts only the ids it actually decoded.
  //
  // A void visitor gets the full scan. Blocks decode independently (each
  // starts from its own raw anchor), but within a block every delta
  // depends on the previous one — a serial decode is latency-bound on that
  // chain. The full scan therefore fuses pairs of blocks, advancing both
  // chains in one loop so their latencies overlap, decoding into stack
  // buffers and draining them in block order so the caller still sees
  // strictly ascending ids. On BMI2 CPUs the pair decode additionally
  // processes 8 payload bytes (up to 4 deltas) per window via pext/pdep
  // (DecodePairFast, cria.cpp); elsewhere it falls back to the byte-serial
  // FastDelta pair loop. Two chains in flight roughly covers the decode
  // latency; beyond two the register pressure eats the gain.
  template <typename F>
  bool Map(F&& f) const {
    if constexpr (!std::is_void_v<std::invoke_result_t<F&, VertexId>>) {
      size_t decoded = 0;
      for (size_t b = 0; b < num_blocks_; ++b) {
        const uint8_t* p = block_data(b);
        uint16_t count = meta(b).count;
        VertexId v = anchor(b);
        ++decoded;
        if (!Visit(f, v)) {
          NoteDecoded(decoded);
          return false;
        }
        for (uint16_t i = 1; i < count; ++i) {
          v += FastDelta(p);
          ++decoded;
          if (!Visit(f, v)) {
            NoteDecoded(decoded);
            return false;
          }
        }
      }
      NoteDecoded(decoded);
    } else {
      size_t b = 0;
      if (block_bytes_ <= kMaxFusedBlockBytes && num_blocks_ > 1) {
        VertexId bufa[kMaxFusedBlockBytes + 1 + kDecodeSlackIds];
        VertexId bufb[kMaxFusedBlockBytes + 1 + kDecodeSlackIds];
        const bool fast = FusedDecodeAvailable();
        if (fast && num_blocks_ >= 4) {
          VertexId bufc[kMaxFusedBlockBytes + 1 + kDecodeSlackIds];
          VertexId bufd[kMaxFusedBlockBytes + 1 + kDecodeSlackIds];
          VertexId* const bufs[4] = {bufa, bufb, bufc, bufd};
          for (; b + 3 < num_blocks_; b += 4) {
            const uint8_t* ptrs[4];
            uint16_t counts[4];
            VertexId anchors[4];
            for (size_t k = 0; k < 4; ++k) {
              ptrs[k] = block_data(b + k);
              counts[k] = meta(b + k).count;
              anchors[k] = anchor(b + k);
            }
            DecodeQuadFast(ptrs, counts, anchors, bufs);
            for (size_t k = 0; k < 4; ++k) {
              for (uint16_t t = 0; t < counts[k]; ++t) {
                f(bufs[k][t]);
              }
            }
          }
        }
        for (; b + 1 < num_blocks_; b += 2) {
          uint16_t ca = meta(b).count;
          uint16_t cb = meta(b + 1).count;
          if (fast) {
            DecodePairFast(block_data(b), ca, anchor(b), bufa,
                           block_data(b + 1), cb, anchor(b + 1), bufb);
          } else {
            const uint8_t* pa = block_data(b);
            const uint8_t* pb = block_data(b + 1);
            VertexId va = anchor(b);
            VertexId vb = anchor(b + 1);
            uint16_t m = ca < cb ? ca : cb;
            bufa[0] = va;
            bufb[0] = vb;
            uint16_t i = 1;
            for (; i < m; ++i) {
              va += FastDelta(pa);
              bufa[i] = va;
              vb += FastDelta(pb);
              bufb[i] = vb;
            }
            for (uint16_t t = i; t < ca; ++t) {
              va += FastDelta(pa);
              bufa[t] = va;
            }
            for (uint16_t t = i; t < cb; ++t) {
              vb += FastDelta(pb);
              bufb[t] = vb;
            }
          }
          for (uint16_t t = 0; t < ca; ++t) {
            f(bufa[t]);
          }
          for (uint16_t t = 0; t < cb; ++t) {
            f(bufb[t]);
          }
        }
      }
      for (; b < num_blocks_; ++b) {
        const uint8_t* p = block_data(b);
        uint16_t count = meta(b).count;
        VertexId v = anchor(b);
        f(v);
        for (uint16_t i = 1; i < count; ++i) {
          v += FastDelta(p);
          f(v);
        }
      }
      NoteDecoded(size_);
    }
    return true;
  }

  std::vector<VertexId> Decode() const {
    std::vector<VertexId> out;
    out.reserve(size_);
    Map([&out](VertexId v) { out.push_back(v); });
    return out;
  }

  size_t memory_footprint() const;
  size_t index_bytes() const;  // anchors + occupancy metadata

  const CriaStats& stats() const { return stats_; }

  // Invariants: per-block ascending decode whose byte length matches the
  // occupancy record, anchor redundancy, no empty block, size consistency.
  bool CheckInvariants() const;

 private:
  // Per-block occupancy: ids resident (incl. the anchor) and payload bytes
  // in use. Both fit uint16 because the payload is capped at block_bytes_
  // <= 0xfffe and every delta takes at least one byte.
  struct BlockMeta {
    uint16_t count;
    uint16_t used;
  };
  static_assert(sizeof(BlockMeta) == 4);

  // data_ is over-allocated by this many bytes past the last payload byte
  // so the decoders' unaligned word loads (4B in FastDelta, 8B in the BMI2
  // window decoder) are always in-bounds.
  static constexpr size_t kDecodePad = 7;

  // Largest block size Map's fused-pair decode will stack-buffer (a block
  // holds at most block_bytes_ + 1 ids: one anchor plus >=1-byte deltas).
  // Oversized configurations fall back to the plain per-block loop.
  static constexpr size_t kMaxFusedBlockBytes = 1024;
  // The BMI2 window decoder may overshoot its output end by up to 7 ids
  // (it always writes 8 slots per window); buffers carry that much slack.
  static constexpr size_t kDecodeSlackIds = 7;

  // True on CPUs with BMI1/BMI2 (pext/pdep/bzhi); decided once at startup.
  static bool FusedDecodeAvailable();
  // Decodes two blocks into bufa/bufb (anchor included), interleaving the
  // two delta chains window-by-window so their latencies overlap. Each
  // buffer needs count + kDecodeSlackIds capacity. Only callable when
  // FusedDecodeAvailable().
  static void DecodePairFast(const uint8_t* pa, uint16_t ca, VertexId va,
                             VertexId* bufa, const uint8_t* pb, uint16_t cb,
                             VertexId vb, VertexId* bufb);
  // Four-block variant of DecodePairFast: p/count/anchor/buf are arrays of
  // 4. Used for long runs (hub vertices) where four chains in flight hide
  // more of the window latency.
  static void DecodeQuadFast(const uint8_t* const* p, const uint16_t* count,
                             const VertexId* anchor, VertexId* const* buf);

  // Branchless decode of one delta from a padded stream (>= 4 readable
  // bytes at p). The generic ReadVarint loop mispredicts constantly on the
  // mixed 1-3 byte deltas real graphs produce — a word load plus masked
  // merges runs ~3x faster and keeps scan-heavy kernels (PageRank) near
  // raw-mode speed. Varints of 5+ bytes (delta >= 2^28) fall back to the
  // generic decoder; the branch is essentially never taken.
  static uint32_t FastDelta(const uint8_t*& p) {
    uint32_t w;
    std::memcpy(&w, p, sizeof(w));
    uint32_t use1 = (w >> 7) & 1;
    uint32_t use2 = use1 & (w >> 15);
    uint32_t use3 = use2 & (w >> 23);
    use2 &= 1;
    use3 &= 1;
    if (use3 & (w >> 31)) [[unlikely]] {
      return static_cast<uint32_t>(ReadVarint(p));
    }
    uint32_t v = (w & 0x7f) | ((((w >> 8) & 0x7f) << 7) & (0u - use1)) |
                 ((((w >> 16) & 0x7f) << 14) & (0u - use2)) |
                 ((((w >> 24) & 0x7f) << 21) & (0u - use3));
    p += 1 + use1 + use2 + use3;
    return v;
  }

  // Section offsets inside data_ (see the layout comment up top).
  size_t meta_offset() const { return num_blocks_ * sizeof(VertexId); }
  size_t payload_offset() const {
    return num_blocks_ * (sizeof(VertexId) + sizeof(BlockMeta));
  }

  VertexId anchor(size_t b) const {
    VertexId v;
    std::memcpy(&v, data_.data() + b * sizeof(VertexId), sizeof(v));
    return v;
  }
  void set_anchor(size_t b, VertexId v) {
    std::memcpy(data_.data() + b * sizeof(VertexId), &v, sizeof(v));
  }
  BlockMeta meta(size_t b) const {
    BlockMeta m;
    std::memcpy(&m, data_.data() + meta_offset() + b * sizeof(BlockMeta),
                sizeof(m));
    return m;
  }
  void set_meta(size_t b, BlockMeta m) {
    std::memcpy(data_.data() + meta_offset() + b * sizeof(BlockMeta), &m,
                sizeof(m));
  }
  const uint8_t* block_data(size_t b) const {
    return data_.data() + payload_offset() + b * block_bytes_;
  }
  uint8_t* block_data(size_t b) {
    return data_.data() + payload_offset() + b * block_bytes_;
  }

  // Index of the block whose range contains `id`.
  size_t FindBlock(VertexId id) const;
  // Max blocks (per side) a redistribution window may span before the
  // structure expands — the RIA movement bound.
  size_t MovementBound() const;

  // Appends block b's ids to *out, ascending.
  void DecodeBlock(size_t b, std::vector<VertexId>* out) const;
  // Payload bytes ids would occupy as one block (deltas of ids[1..]).
  static size_t PayloadBytes(std::span<const VertexId> ids);
  // Re-encodes block b as `ids` (non-empty, payload must fit block_bytes_).
  void WriteBlock(size_t b, std::span<const VertexId> ids);

  // Repacks a window of blocks around b so the merged run (block b's ids
  // replaced by `block_ids`) fits; false if no window within the bound can.
  bool TryRedistribute(size_t b, const std::vector<VertexId>& block_ids);

  // Delete-side hysteresis: rebuild once allocated bytes exceed twice the
  // slack target for the resident payload, releasing vector capacity.
  void MaybeContract();
  void ReleaseExcessCapacity();

  // Pushes the current footprint into CoreStats::bytes_resident (a gauge:
  // the delta against the last reported value is added/subtracted).
  void UpdateResidentGauge();

  void NoteDecoded(size_t n) const {
    if (core_stats_ != nullptr && n != 0) {
      core_stats_->neighbors_decoded.fetch_add(n, std::memory_order_relaxed);
    }
  }
  void NoteRecompressed() {
    if (core_stats_ != nullptr) {
      core_stats_->cria_recompressions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<uint8_t> data_;
  CoreStats* core_stats_;         // optional engine-wide counters; may be null
  uint32_t num_blocks_ = 0;
  uint32_t size_ = 0;
  uint32_t used_total_ = 0;       // sum of meta(*).used
  uint32_t resident_reported_ = 0;  // last footprint pushed into the gauge
  CriaStats stats_;
  uint16_t block_bytes_;
  float alpha_;
};

}  // namespace lsg

#endif  // SRC_CORE_CRIA_H_
