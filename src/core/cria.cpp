#include "src/core/cria.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LSG_CRIA_BMI2_DECODER 1
#endif

namespace lsg {

namespace {

#ifdef LSG_CRIA_BMI2_DECODER

// Cursor for one block's in-flight decode inside DecodePairFast.
struct DecodeCursor {
  const uint8_t* p;   // next payload byte
  VertexId* o;        // next output slot
  VertexId* oend;     // one past the last real output slot
  VertexId v;         // running prefix sum
};

// Per-stop-mask decode plan: for each of the 256 possible "varint ends
// here" bit patterns of an 8-byte window, the bit-slice positions of up to
// 8 varint values inside the pext-gathered payload word, pre-multiplied by
// 7 so the decode loop does no arithmetic on them. One L1 load replaces a
// popcount + pdep/tzcnt dependency chain — the window's critical path
// drops by ~5 cycles, which is the difference between ~2.5 and ~1.7 ns/id
// on delta-heavy scans. Eight slots (not four) so a window of 1-byte
// deltas — the common case inside hub adjacency runs, where most edges
// live — drains in a single step.
//
// Slots past the varints actually present get a zero-length slice (their
// bzhi masks everything away), so the decode needs no validity masking.
struct WindowPlan {
  uint8_t s[7];          // bit shift of varints 1..7 (varint 0 is at 0)
  uint8_t l[8];          // bit lengths; 0 for absent slots
  uint8_t take_advance;  // take << 4 | bytes consumed
};
static_assert(sizeof(WindowPlan) == 16);

constexpr std::array<WindowPlan, 256> BuildWindowPlans() {
  std::array<WindowPlan, 256> plans{};
  for (int m = 0; m < 256; ++m) {
    // e[k]: one past the end byte of varint k; absent slots collapse to
    // zero-length slices at the last real boundary.
    uint8_t e[8];
    int cnt = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if ((m >> bit) & 1) {
        e[cnt++] = static_cast<uint8_t>(bit + 1);
      }
    }
    for (int k = cnt; k < 8; ++k) {
      e[k] = cnt == 0 ? 0 : e[cnt - 1];
    }
    WindowPlan& plan = plans[m];
    for (int k = 0; k < 7; ++k) {
      plan.s[k] = static_cast<uint8_t>(7 * e[k]);
    }
    plan.l[0] = static_cast<uint8_t>(7 * e[0]);
    for (int k = 1; k < 8; ++k) {
      plan.l[k] = static_cast<uint8_t>(7 * (e[k] - e[k - 1]));
    }
    plan.take_advance =
        static_cast<uint8_t>(cnt << 4 | (cnt == 0 ? 0 : e[cnt - 1]));
  }
  return plans;
}

constexpr std::array<WindowPlan, 256> kWindowPlans = BuildWindowPlans();

// Decodes all varints wholly inside one 8-byte window (1 to 8 of them).
// The caller checks the output bound; a window call always makes progress
// on valid input.
//
// pext gathers the low 7 bits of all 8 bytes into one 56-bit word (LEB128
// stores the least-significant group first, so varint k's value is a
// contiguous bit-slice of it), and pext of the inverted continuation bits
// yields one "stop" bit per varint end. The stop mask indexes kWindowPlans
// for the slice positions — no serial pointer advance per varint, which is
// what bounds the byte-at-a-time decoders. Always writes 8 slots (the
// caller's buffer has kDecodeSlackIds of slack); advances o by the number
// of varints actually present.
__attribute__((target("bmi,bmi2"), always_inline)) inline void
DecodeWindow(DecodeCursor& c) {
  uint64_t w;
  std::memcpy(&w, c.p, sizeof(w));
  uint64_t x = _pext_u64(w, 0x7f7f7f7f7f7f7f7fULL);
  uint32_t stops =
      static_cast<uint32_t>(_pext_u64(~w, 0x8080808080808080ULL)) & 0xff;
  if (stops == 0) [[unlikely]] {
    // A varint spanning the whole window: >= 8 bytes, i.e. a delta >= 2^56.
    // Deltas are 32-bit so this cannot come from our encoder; decode one
    // varint generically so corrupt input still terminates.
    const uint8_t* q = c.p;
    c.v += static_cast<uint32_t>(ReadVarint(q));
    *c.o++ = c.v;
    c.p = q;
    return;
  }
  const WindowPlan& plan = kWindowPlans[stops];
  // bzhi with an index >= 32 returns the source unchanged, which is exactly
  // right for a 5-byte varint whose value still fits 32 bits; absent slots
  // have zero-length slices and decode to 0, keeping the prefix sum exact.
  VertexId v = c.v;
  v += _bzhi_u32(static_cast<uint32_t>(x), plan.l[0]);
  c.o[0] = v;
  v += _bzhi_u32(static_cast<uint32_t>(x >> plan.s[0]), plan.l[1]);
  c.o[1] = v;
  v += _bzhi_u32(static_cast<uint32_t>(x >> plan.s[1]), plan.l[2]);
  c.o[2] = v;
  v += _bzhi_u32(static_cast<uint32_t>(x >> plan.s[2]), plan.l[3]);
  c.o[3] = v;
  v += _bzhi_u32(static_cast<uint32_t>(x >> plan.s[3]), plan.l[4]);
  c.o[4] = v;
  v += _bzhi_u32(static_cast<uint32_t>(x >> plan.s[4]), plan.l[5]);
  c.o[5] = v;
  v += _bzhi_u32(static_cast<uint32_t>(x >> plan.s[5]), plan.l[6]);
  c.o[6] = v;
  v += _bzhi_u32(static_cast<uint32_t>(x >> plan.s[6]), plan.l[7]);
  c.o[7] = v;
  c.v = v;
  c.o += plan.take_advance >> 4;
  c.p += plan.take_advance & 0xf;
}

__attribute__((target("bmi,bmi2"))) void DecodePairBmi2(
    const uint8_t* pa, uint16_t ca, VertexId va, VertexId* bufa,
    const uint8_t* pb, uint16_t cb, VertexId vb, VertexId* bufb) {
  bufa[0] = va;
  bufb[0] = vb;
  DecodeCursor a{pa, bufa + 1, bufa + ca, va};
  DecodeCursor b{pb, bufb + 1, bufb + cb, vb};
  while (a.o < a.oend && b.o < b.oend) {
    DecodeWindow(a);
    DecodeWindow(b);
  }
  while (a.o < a.oend) {
    DecodeWindow(a);
  }
  while (b.o < b.oend) {
    DecodeWindow(b);
  }
}

__attribute__((target("bmi,bmi2"))) void DecodeQuadBmi2(
    const uint8_t* const* p, const uint16_t* count, const VertexId* anchor,
    VertexId* const* buf) {
  DecodeCursor cur[4];
  for (int k = 0; k < 4; ++k) {
    buf[k][0] = anchor[k];
    cur[k] = DecodeCursor{p[k], buf[k] + 1, buf[k] + count[k], anchor[k]};
  }
  while (cur[0].o < cur[0].oend && cur[1].o < cur[1].oend &&
         cur[2].o < cur[2].oend && cur[3].o < cur[3].oend) {
    DecodeWindow(cur[0]);
    DecodeWindow(cur[1]);
    DecodeWindow(cur[2]);
    DecodeWindow(cur[3]);
  }
  // Blocks are near-uniformly packed, so these drains are short.
  for (int k = 0; k < 4; ++k) {
    while (cur[k].o < cur[k].oend) {
      DecodeWindow(cur[k]);
    }
  }
}

#endif  // LSG_CRIA_BMI2_DECODER

}  // namespace

bool Cria::FusedDecodeAvailable() {
#ifdef LSG_CRIA_BMI2_DECODER
  static const bool available =
      __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2") &&
      __builtin_cpu_supports("popcnt");
  return available;
#else
  return false;
#endif
}

void Cria::DecodePairFast(const uint8_t* pa, uint16_t ca, VertexId va,
                          VertexId* bufa, const uint8_t* pb, uint16_t cb,
                          VertexId vb, VertexId* bufb) {
#ifdef LSG_CRIA_BMI2_DECODER
  DecodePairBmi2(pa, ca, va, bufa, pb, cb, vb, bufb);
#else
  (void)pa; (void)ca; (void)va; (void)bufa;
  (void)pb; (void)cb; (void)vb; (void)bufb;
#endif
}

void Cria::DecodeQuadFast(const uint8_t* const* p, const uint16_t* count,
                          const VertexId* anchor, VertexId* const* buf) {
#ifdef LSG_CRIA_BMI2_DECODER
  DecodeQuadBmi2(p, count, anchor, buf);
#else
  (void)p; (void)count; (void)anchor; (void)buf;
#endif
}

Cria::Cria(const Options& options)
    : core_stats_(options.stats),
      block_bytes_(static_cast<uint16_t>(options.cria_block_bytes)),
      alpha_(static_cast<float>(options.alpha)) {
  // BlockMeta fields are uint16: a block's id count is bounded by its
  // payload bytes + 1 (every delta is at least one byte), so one bound
  // covers both.
  assert(options.cria_block_bytes >= 8 && options.cria_block_bytes <= 0xfffe);
  assert(alpha_ >= 1.0f);
}

Cria::Cria(const Cria& other)
    : data_(other.data_),
      core_stats_(other.core_stats_),
      num_blocks_(other.num_blocks_),
      size_(other.size_),
      used_total_(other.used_total_),
      stats_(other.stats_),
      block_bytes_(other.block_bytes_),
      alpha_(other.alpha_) {
  // resident_reported_ stays 0 until here: the clone is new residency, on
  // top of (not instead of) the original's.
  UpdateResidentGauge();
}

Cria::~Cria() {
  if (core_stats_ != nullptr && resident_reported_ != 0) {
    core_stats_->bytes_resident.fetch_sub(resident_reported_,
                                          std::memory_order_relaxed);
  }
}

void Cria::BulkLoad(std::span<const VertexId> sorted_ids) {
  size_ = static_cast<uint32_t>(sorted_ids.size());
  used_total_ = 0;
  if (size_ == 0) {
    num_blocks_ = 0;
    data_.clear();
    ReleaseExcessCapacity();
    UpdateResidentGauge();
    return;
  }
  // Greedy packing to a payload target of block_bytes / alpha: the same
  // slack policy as the raw RIA's slot amplification, in bytes.
  size_t fill_target = std::max<size_t>(
      1, static_cast<size_t>(static_cast<float>(block_bytes_) / alpha_));
  size_t n = size_;
  std::vector<BlockMeta> metas;
  size_t i = 0;
  while (i < n) {
    size_t payload = 0;
    size_t j = i + 1;
    while (j < n) {
      size_t len = VarintLength(sorted_ids[j] - sorted_ids[j - 1]);
      if (payload + len > fill_target) {
        break;
      }
      payload += len;
      ++j;
    }
    metas.push_back(
        {static_cast<uint16_t>(j - i), static_cast<uint16_t>(payload)});
    used_total_ += static_cast<uint32_t>(payload);
    i = j;
  }
  num_blocks_ = static_cast<uint32_t>(metas.size());
  // Full-capacity blocks except the trailing one, which gets exactly its
  // payload: a small set (the common adjacency tail) pays for its bytes,
  // not for a whole block of slack. WriteBlock grows it on demand. The
  // kDecodePad slack keeps FastDelta's word loads in-bounds.
  data_.assign(payload_offset() + (num_blocks_ - 1) * block_bytes_ +
                   metas.back().used + kDecodePad,
               0);
  size_t src = 0;
  for (size_t b = 0; b < num_blocks_; ++b) {
    set_anchor(b, sorted_ids[src]);
    set_meta(b, metas[b]);
    uint8_t* q = block_data(b);
    const uint8_t* start = q;
    for (uint16_t k = 1; k < metas[b].count; ++k) {
      uint64_t delta = sorted_ids[src + k] - sorted_ids[src + k - 1];
      while (delta >= 0x80) {
        *q++ = static_cast<uint8_t>(delta) | 0x80;
        delta >>= 7;
      }
      *q++ = static_cast<uint8_t>(delta);
    }
    assert(static_cast<size_t>(q - start) == metas[b].used);
    (void)start;
    src += metas[b].count;
  }
  assert(src == n);
  ReleaseExcessCapacity();
  UpdateResidentGauge();
}

void Cria::ReleaseExcessCapacity() {
  if (data_.capacity() > 2 * data_.size()) {
    data_.shrink_to_fit();
  }
}

void Cria::UpdateResidentGauge() {
  if (core_stats_ == nullptr) {
    return;
  }
  uint32_t now = static_cast<uint32_t>(memory_footprint());
  if (now >= resident_reported_) {
    core_stats_->bytes_resident.fetch_add(now - resident_reported_,
                                          std::memory_order_relaxed);
  } else {
    core_stats_->bytes_resident.fetch_sub(resident_reported_ - now,
                                          std::memory_order_relaxed);
  }
  resident_reported_ = now;
}

size_t Cria::FindBlock(VertexId id) const {
  // upper_bound over the anchors, then step back one block.
  size_t lo = 0;
  size_t hi = num_blocks_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (id < anchor(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

size_t Cria::MovementBound() const {
  return std::max<size_t>(
      1, std::bit_width(static_cast<size_t>(num_blocks_)) - 1);
}

void Cria::DecodeBlock(size_t b, std::vector<VertexId>* out) const {
  const uint8_t* p = block_data(b);
  uint16_t count = meta(b).count;
  VertexId v = anchor(b);
  out->push_back(v);
  for (uint16_t i = 1; i < count; ++i) {
    v += FastDelta(p);
    out->push_back(v);
  }
}

size_t Cria::PayloadBytes(std::span<const VertexId> ids) {
  size_t total = 0;
  for (size_t i = 1; i < ids.size(); ++i) {
    total += VarintLength(ids[i] - ids[i - 1]);
  }
  return total;
}

void Cria::WriteBlock(size_t b, std::span<const VertexId> ids) {
  assert(!ids.empty());
  size_t payload = PayloadBytes(ids);
  assert(payload <= block_bytes_);
  // Only the trailing block can be allocated short (BulkLoad trims it).
  if (payload_offset() + b * block_bytes_ + payload + kDecodePad >
      data_.size()) {
    assert(b + 1 == num_blocks_);
    data_.resize(payload_offset() + b * block_bytes_ + payload + kDecodePad,
                 0);
  }
  uint8_t* p = block_data(b);
  uint8_t* q = p;
  for (size_t i = 1; i < ids.size(); ++i) {
    uint64_t delta = ids[i] - ids[i - 1];
    while (delta >= 0x80) {
      *q++ = static_cast<uint8_t>(delta) | 0x80;
      delta >>= 7;
    }
    *q++ = static_cast<uint8_t>(delta);
  }
  assert(static_cast<size_t>(q - p) == payload);
  used_total_ += static_cast<uint32_t>(payload) - meta(b).used;
  set_meta(b, {static_cast<uint16_t>(ids.size()),
               static_cast<uint16_t>(payload)});
  set_anchor(b, ids[0]);
  ++stats_.blocks_reencoded;
}

bool Cria::TryRedistribute(size_t b, const std::vector<VertexId>& block_ids) {
  size_t nb = num_blocks_;
  if (nb < 2) {
    return false;
  }
  size_t bound = MovementBound();
  std::vector<VertexId> window;
  for (size_t d = 1; d <= bound; ++d) {
    size_t lo = b >= d ? b - d : 0;
    size_t hi = std::min(b + d, nb - 1);
    size_t nblk = hi - lo + 1;
    if (nblk < 2) {
      continue;
    }
    window.clear();
    size_t decoded = 0;
    for (size_t k = lo; k <= hi; ++k) {
      if (k == b) {
        window.insert(window.end(), block_ids.begin(), block_ids.end());
      } else {
        DecodeBlock(k, &window);
        decoded += meta(k).count;
      }
    }
    NoteDecoded(decoded);
    // Even count split: block k of the window takes ceil/floor of the ids.
    // Every block stays non-empty (window holds >= nblk ids: each source
    // block held >= 1). Commit iff every segment's payload fits.
    size_t total = window.size();
    size_t base = total / nblk;
    size_t rem = total % nblk;
    assert(base >= 1);
    bool fits = true;
    size_t off = 0;
    for (size_t k = 0; k < nblk && fits; ++k) {
      size_t take = base + (k < rem ? 1 : 0);
      fits = PayloadBytes(std::span(window.data() + off, take)) <= block_bytes_;
      off += take;
    }
    if (!fits) {
      continue;
    }
    off = 0;
    for (size_t k = lo; k <= hi; ++k) {
      size_t take = base + (k - lo < rem ? 1 : 0);
      WriteBlock(k, std::span(window.data() + off, take));
      off += take;
    }
    ++stats_.redistributions;
    NoteRecompressed();
    return true;
  }
  return false;
}

Cria::InsertResult Cria::TryInsert(VertexId id) {
  if (num_blocks_ == 0) {
    VertexId one[1] = {id};
    BulkLoad(one);
    return InsertResult::kInserted;
  }
  size_t b = FindBlock(id);
  std::vector<VertexId> ids;
  ids.reserve(meta(b).count + 1);
  DecodeBlock(b, &ids);
  NoteDecoded(ids.size());
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) {
    return InsertResult::kDuplicate;
  }
  ids.insert(it, id);
  if (PayloadBytes(ids) <= block_bytes_) {
    WriteBlock(b, ids);
    ++size_;
    return InsertResult::kInserted;
  }
  if (TryRedistribute(b, ids)) {
    ++size_;
    return InsertResult::kInserted;
  }
  return InsertResult::kNeedExpand;
}

bool Cria::Insert(VertexId id) {
  switch (TryInsert(id)) {
    case InsertResult::kInserted:
      return true;
    case InsertResult::kDuplicate:
      return false;
    case InsertResult::kNeedExpand: {
      std::vector<VertexId> ids = Decode();
      ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
      BulkLoad(ids);  // re-derives size_
      ++stats_.rebuilds;
      NoteRecompressed();
      return true;
    }
  }
  return false;
}

bool Cria::Contains(VertexId id) const {
  if (num_blocks_ == 0) {
    return false;
  }
  size_t b = FindBlock(id);
  VertexId v = anchor(b);
  if (id < v) {
    return false;  // below the first anchor (only possible for b == 0)
  }
  if (id == v) {
    NoteDecoded(1);
    return true;
  }
  const uint8_t* p = block_data(b);
  uint16_t count = meta(b).count;
  size_t decoded = 1;
  for (uint16_t i = 1; i < count; ++i) {
    v += FastDelta(p);
    ++decoded;
    if (v >= id) {
      NoteDecoded(decoded);
      return v == id;
    }
  }
  NoteDecoded(decoded);
  return false;
}

bool Cria::Delete(VertexId id) {
  if (num_blocks_ == 0) {
    return false;
  }
  size_t b = FindBlock(id);
  std::vector<VertexId> ids;
  ids.reserve(meta(b).count);
  DecodeBlock(b, &ids);
  NoteDecoded(ids.size());
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) {
    return false;
  }
  ids.erase(it);
  if (ids.empty()) {
    // No empty blocks allowed (the anchor would dangle): rebuild without
    // the drained block. Blocks are gathered in order, so the result stays
    // sorted.
    std::vector<VertexId> rest;
    rest.reserve(size_ - 1);
    for (size_t k = 0; k < num_blocks_; ++k) {
      if (k != b) {
        DecodeBlock(k, &rest);
      }
    }
    BulkLoad(rest);
    ++stats_.rebuilds;
    NoteRecompressed();
    return true;
  }
  // Removing an id merges two deltas into one (or drops the first delta
  // when the anchor goes): the payload never grows, so the write fits.
  WriteBlock(b, ids);
  --size_;
  MaybeContract();
  return true;
}

void Cria::MaybeContract() {
  // Hysteresis at twice the slack target (plus one block) so a rebuild is
  // never immediately undone. The repack estimate charges each current
  // block's payload plus a rejoin delta for its anchor (packed blocks
  // re-include deltas the per-block anchors currently elide).
  size_t payload_alloc = data_.size() - payload_offset() - kDecodePad;
  if (payload_alloc <= block_bytes_) {
    return;
  }
  double est_payload = static_cast<double>(used_total_) +
                       5.0 * static_cast<double>(num_blocks_);
  if (static_cast<double>(payload_alloc) <=
      2.0 * alpha_ * est_payload + block_bytes_) {
    return;
  }
  BulkLoad(Decode());
  ++stats_.contractions;
  NoteRecompressed();
  if (core_stats_ != nullptr) {
    core_stats_->ria_contractions.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t Cria::memory_footprint() const {
  return sizeof(*this) + data_.capacity();
}

size_t Cria::index_bytes() const {
  return payload_offset();  // anchors + occupancy metadata
}

bool Cria::CheckInvariants() const {
  if (num_blocks_ == 0) {
    return data_.empty() && size_ == 0 && used_total_ == 0;
  }
  // The trailing block may be allocated anywhere between its payload and
  // full block capacity (plus the decode pad); every other block is
  // full-capacity by layout.
  size_t min_bytes = payload_offset() + (num_blocks_ - 1) * block_bytes_ +
                     meta(num_blocks_ - 1).used + kDecodePad;
  size_t max_bytes = payload_offset() + num_blocks_ * block_bytes_ + kDecodePad;
  if (data_.size() < min_bytes || data_.size() > max_bytes) {
    return false;
  }
  size_t total = 0;
  size_t total_used = 0;
  VertexId prev = 0;
  bool first = true;
  for (size_t b = 0; b < num_blocks_; ++b) {
    BlockMeta m = meta(b);
    if (m.count == 0 || m.used > block_bytes_) {
      return false;
    }
    const uint8_t* p = block_data(b);
    const uint8_t* start = p;
    VertexId v = anchor(b);
    for (uint16_t i = 0; i < m.count; ++i) {
      if (i != 0) {
        uint64_t delta = ReadVarint(p);
        if (delta == 0) {
          return false;  // duplicates are not representable
        }
        v += static_cast<VertexId>(delta);
      }
      if (!first && v <= prev) {
        return false;
      }
      prev = v;
      first = false;
      ++total;
    }
    if (static_cast<size_t>(p - start) != m.used) {
      return false;
    }
    total_used += m.used;
  }
  return total == size_ && total_used == used_total_;
}

}  // namespace lsg
