// .lsgbin: a compressed CSR-style binary graph container with per-range
// offsets, built for parallel loading (ROADMAP item 3; ParaGrapher's
// selective-loading WebGraph API is the external model, PAPERS.md).
//
// Layout (all fixed-width fields little-endian uint64):
//
//   header    magic, num_vertices, num_edges, num_ranges
//   ranges    (num_ranges + 1) x {first_vertex, edge_offset, byte_offset}
//   payload   per vertex: varint degree, then (degree > 0) varint first
//             neighbor followed by degree-1 varint deltas (strictly
//             ascending, so every delta is >= 1)
//
// The range table carves the vertex space into contiguous, edge-balanced
// spans; entry i names its first vertex, its first edge's rank, and its
// payload byte start, with a sentinel entry (num_vertices, num_edges,
// payload_size) closing the last span. A loader thread seeks straight to
// its range's bytes and decodes independently — no scan-to-find-my-offset
// pass — which is what makes the 1->8 thread speedup near-linear.
//
// The payload is decoded with the bounds-checked TryReadVarint (file bytes
// are untrusted input): truncation, continuation runs past a range end, a
// 64-bit overflow, or an id outside [0, num_vertices) all fail loading with
// a descriptive error instead of UB.
#ifndef SRC_GEN_LSGBIN_H_
#define SRC_GEN_LSGBIN_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ctree/compressed_chunk.h"
#include "src/parallel/thread_pool.h"
#include "src/util/crc32c.h"
#include "src/util/graph_types.h"

namespace lsg {

namespace lsgbin_internal {

// The magic spelled out from the characters so the constant can't rot.
inline uint64_t Magic() {
  const char tag[8] = {'L', 'S', 'G', 'B', 'I', 'N', '0', '1'};
  uint64_t m = 0;
  std::memcpy(&m, tag, sizeof(m));
  return m;
}

// Optional trailing footer (durability checkpoints, DESIGN.md §14):
//   u64 footer magic | u64 watermark LSN | u64 crc (CRC32C of every
//   preceding byte of the file, including the footer's first 16 bytes,
//   in the low 32 bits)
// Presence is unambiguous: the range-table sentinel pins the payload size,
// so the file is either exactly header+table+payload bytes (no footer) or
// exactly kFooterBytes more (footer).
inline constexpr size_t kFooterBytes = 24;

inline uint64_t FooterMagic() {
  const char tag[8] = {'L', 'S', 'G', 'F', 'T', 'R', '0', '1'};
  uint64_t m = 0;
  std::memcpy(&m, tag, sizeof(m));
  return m;
}

struct RangeEntry {
  uint64_t first_vertex;
  uint64_t edge_offset;
  uint64_t byte_offset;  // relative to payload start
};

inline void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  uint8_t buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  out.insert(out.end(), buf, buf + sizeof(buf));
}

}  // namespace lsgbin_internal

struct LoadedGraph {
  VertexId num_vertices = 0;
  std::vector<Edge> edges;  // CSR order: sorted by (src, dst), unique

  // Durability footer, when the file carried one: the WAL LSN through
  // which this snapshot is complete (replay resumes after it).
  bool has_watermark = false;
  uint64_t watermark_lsn = 0;
};

// Extracts the full edge list of any engine or view, sorted by (src, dst)
// and duplicate-free: exactly WriteLsgbin's input contract, so
// WriteLsgbin(path, g.num_vertices(), DumpEdges(g)) saves any engine.
template <typename G>
std::vector<Edge> DumpEdges(const G& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.map_neighbors(v, [&edges, v](VertexId u) {
      edges.push_back(Edge{v, u});
    });
  }
  return edges;
}

// Serializes a graph to `path`. `sorted_edges` must be sorted by (src, dst)
// and duplicate-free, with every endpoint < num_vertices (the DumpEdges /
// PrepareBatch / BuildDatasetEdges output contract). num_ranges == 0 picks
// an edge-count based default; it is clamped so every range holds at least
// one vertex.
// A non-null watermark_lsn appends the checksummed durability footer.
// Returns the number of bytes written.
inline size_t WriteLsgbin(const std::string& path, VertexId num_vertices,
                          std::span<const Edge> sorted_edges,
                          size_t num_ranges = 0,
                          const uint64_t* watermark_lsn = nullptr) {
  using lsgbin_internal::AppendU64;
  using lsgbin_internal::RangeEntry;
  const size_t m = sorted_edges.size();
  if (num_ranges == 0) {
    num_ranges = std::clamp<size_t>(m / 32768, 1, 1024);
  }
  num_ranges = std::clamp<size_t>(num_ranges, 1, std::max<size_t>(1, num_vertices));

  // Encode the payload vertex by vertex, recording range cut points at
  // vertex boundaries once a range has accumulated its share of edges.
  std::vector<uint8_t> payload;
  payload.reserve(m * 2 + num_vertices);
  std::vector<RangeEntry> ranges;
  ranges.reserve(num_ranges + 1);
  const uint64_t edges_per_range = (m + num_ranges - 1) / std::max<size_t>(1, num_ranges);
  size_t e = 0;  // next edge to encode
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (ranges.empty() ||
        (ranges.size() < num_ranges &&
         e >= ranges.size() * std::max<uint64_t>(1, edges_per_range))) {
      ranges.push_back({v, e, payload.size()});
    }
    size_t begin = e;
    while (e < m && sorted_edges[e].src == v) {
      ++e;
    }
    assert(e == m || sorted_edges[e].src > v);
    size_t deg = e - begin;
    AppendVarint(payload, deg);
    if (deg != 0) {
      AppendVarint(payload, sorted_edges[begin].dst);
      for (size_t i = begin + 1; i < e; ++i) {
        assert(sorted_edges[i].dst > sorted_edges[i - 1].dst);
        AppendVarint(payload, sorted_edges[i].dst - sorted_edges[i - 1].dst);
      }
    }
  }
  if (e != m) {
    throw std::runtime_error("edges reference vertices >= num_vertices");
  }
  if (ranges.empty()) {
    ranges.push_back({0, 0, 0});  // num_vertices == 0
  }
  ranges.push_back({num_vertices, m, payload.size()});  // sentinel

  std::vector<uint8_t> head;
  head.reserve(4 * 8 + ranges.size() * sizeof(RangeEntry));
  AppendU64(head, lsgbin_internal::Magic());
  AppendU64(head, num_vertices);
  AppendU64(head, m);
  AppendU64(head, ranges.size() - 1);
  for (const RangeEntry& r : ranges) {
    AppendU64(head, r.first_vertex);
    AppendU64(head, r.edge_offset);
    AppendU64(head, r.byte_offset);
  }

  std::vector<uint8_t> footer;
  if (watermark_lsn != nullptr) {
    footer.reserve(lsgbin_internal::kFooterBytes);
    AppendU64(footer, lsgbin_internal::FooterMagic());
    AppendU64(footer, *watermark_lsn);
    uint32_t crc = Crc32c(head.data(), head.size());
    crc = Crc32cExtend(crc, payload.data(), payload.size());
    crc = Crc32cExtend(crc, footer.data(), footer.size());
    AppendU64(footer, crc);
  }

  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for write: " + path + ": " +
                             std::strerror(errno));
  }
  bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size();
  ok = ok && (payload.empty() ||
              std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  ok = ok && (footer.empty() ||
              std::fwrite(footer.data(), 1, footer.size(), f) == footer.size());
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    throw std::runtime_error("short write: " + path + ": " +
                             std::strerror(errno));
  }
  return head.size() + payload.size() + footer.size();
}

namespace lsgbin_internal {

// RAII mmap of a whole file, read-only.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
      throw std::runtime_error("cannot open: " + path + ": " +
                               std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      int saved = errno;
      ::close(fd_);
      throw std::runtime_error("cannot stat: " + path + ": " +
                               std::strerror(saved));
    }
    size_ = static_cast<size_t>(st.st_size);
    if (size_ != 0) {
      void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
      if (p == MAP_FAILED) {
        ::close(fd_);
        throw std::runtime_error("mmap failed: " + path + ": " +
                                 std::strerror(errno));
      }
      data_ = static_cast<const uint8_t*>(p);
    }
  }

  ~MappedFile() {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  int fd_ = -1;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace lsgbin_internal

// Loads a .lsgbin file, decoding ranges in parallel on `pool` (the global
// pool when null). Throws std::runtime_error on any malformed input; never
// reads out of bounds.
inline LoadedGraph LoadLsgbin(const std::string& path,
                              ThreadPool* pool = nullptr) {
  using lsgbin_internal::LoadU64;
  using lsgbin_internal::MappedFile;
  MappedFile file(path);
  constexpr size_t kHeaderBytes = 4 * 8;
  if (file.size() < kHeaderBytes) {
    throw std::runtime_error("truncated header (file is " +
                             std::to_string(file.size()) + " bytes, header needs " +
                             std::to_string(kHeaderBytes) + "): " + path);
  }
  const uint8_t* base = file.data();
  if (LoadU64(base) != lsgbin_internal::Magic()) {
    throw std::runtime_error("bad magic: " + path);
  }
  const uint64_t num_vertices = LoadU64(base + 8);
  const uint64_t num_edges = LoadU64(base + 16);
  const uint64_t num_ranges = LoadU64(base + 24);
  if (num_vertices > kInvalidVertex || num_ranges > num_vertices + 1 ||
      num_ranges == 0) {
    throw std::runtime_error("corrupt header: " + path);
  }
  const size_t table_bytes = (num_ranges + 1) * 3 * 8;
  if (file.size() < kHeaderBytes + table_bytes) {
    throw std::runtime_error(
        "truncated range table (need " +
        std::to_string(kHeaderBytes + table_bytes) + " bytes at offset " +
        std::to_string(kHeaderBytes) + ", file is " +
        std::to_string(file.size()) + "): " + path);
  }
  const uint8_t* payload = base + kHeaderBytes + table_bytes;
  // Bytes after the range table; a durability footer, when present, sits at
  // the very end and is NOT payload.
  const size_t avail_bytes = file.size() - kHeaderBytes - table_bytes;

  auto range = [&](size_t i) {
    const uint8_t* p = base + kHeaderBytes + i * 3 * 8;
    return lsgbin_internal::RangeEntry{LoadU64(p), LoadU64(p + 8),
                                       LoadU64(p + 16)};
  };
  // Sentinel + monotonicity checks up front so the decode loop can trust
  // the offsets as slice bounds. The sentinel pins the payload size, which
  // is what makes footer detection unambiguous.
  auto sentinel = range(num_ranges);
  bool has_watermark = false;
  uint64_t watermark_lsn = 0;
  size_t payload_bytes = avail_bytes;
  if (sentinel.byte_offset + lsgbin_internal::kFooterBytes == avail_bytes &&
      LoadU64(payload + sentinel.byte_offset) ==
          lsgbin_internal::FooterMagic()) {
    const uint8_t* footer = payload + sentinel.byte_offset;
    const uint64_t stored = LoadU64(footer + 16);
    uint32_t crc = Crc32c(base, file.size() - 8);
    if (stored != crc) {
      throw std::runtime_error(
          "footer checksum mismatch (stored " + std::to_string(stored) +
          ", computed " + std::to_string(crc) + "): " + path);
    }
    has_watermark = true;
    watermark_lsn = LoadU64(footer + 8);
    payload_bytes = sentinel.byte_offset;
  }
  // Bound the header counts by what the payload could possibly encode
  // (every vertex costs at least its one-byte degree varint, every edge at
  // least a one-byte delta) BEFORE sizing any allocation from them. A
  // crafted header can otherwise request a multi-exabyte edges.resize()
  // while still matching its own range-table sentinel.
  if (num_vertices > payload_bytes || num_edges > payload_bytes) {
    throw std::runtime_error("header counts exceed file size: " + path);
  }
  if (sentinel.first_vertex != num_vertices || sentinel.edge_offset != num_edges ||
      sentinel.byte_offset != payload_bytes) {
    throw std::runtime_error(
        payload_bytes < sentinel.byte_offset
            ? "truncated payload (range table promises " +
                  std::to_string(sentinel.byte_offset) +
                  " payload bytes, file holds " +
                  std::to_string(payload_bytes) + "): " + path
            : "corrupt range table: " + path);
  }
  for (size_t i = 0; i < num_ranges; ++i) {
    auto cur = range(i);
    auto next = range(i + 1);
    if (cur.first_vertex > next.first_vertex ||
        cur.edge_offset > next.edge_offset ||
        cur.byte_offset > next.byte_offset ||
        (i == 0 && (cur.first_vertex != 0 || cur.edge_offset != 0 ||
                    cur.byte_offset != 0))) {
      throw std::runtime_error("corrupt range table: " + path);
    }
  }

  LoadedGraph out;
  out.num_vertices = static_cast<VertexId>(num_vertices);
  out.has_watermark = has_watermark;
  out.watermark_lsn = watermark_lsn;
  out.edges.resize(num_edges);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::Global();
  // One error slot per range: threads never contend, the first failure (in
  // range order) is reported after the join.
  std::vector<std::string> errors(num_ranges);
  std::atomic<bool> failed{false};
  p.ParallelFor(
      0, num_ranges,
      [&](size_t i) {
        auto cur = range(i);
        auto next = range(i + 1);
        const uint8_t* q = payload + cur.byte_offset;
        const uint8_t* end = payload + next.byte_offset;
        Edge* e = out.edges.data() + cur.edge_offset;
        Edge* e_end = out.edges.data() + next.edge_offset;
        for (uint64_t v = cur.first_vertex; v < next.first_vertex; ++v) {
          uint64_t deg = 0;
          uint64_t prev = 0;
          if (!TryReadVarint(&q, end, &deg) ||
              deg > static_cast<uint64_t>(e_end - e)) {
            errors[i] = "truncated payload (range " + std::to_string(i) + ")";
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          for (uint64_t k = 0; k < deg; ++k) {
            uint64_t delta = 0;
            if (!TryReadVarint(&q, end, &delta)) {
              errors[i] = "truncated payload (range " + std::to_string(i) + ")";
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            uint64_t dst = k == 0 ? delta : prev + delta;
            if (dst >= num_vertices || (k != 0 && delta == 0)) {
              errors[i] = "neighbor id out of range (range " +
                          std::to_string(i) + ")";
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            *e++ = Edge{static_cast<VertexId>(v), static_cast<VertexId>(dst)};
            prev = dst;
          }
        }
        if (e != e_end || q != end) {
          errors[i] = "range contents disagree with range table (range " +
                      std::to_string(i) + ")";
          failed.store(true, std::memory_order_relaxed);
        }
      },
      /*grain=*/1);
  if (failed.load(std::memory_order_relaxed)) {
    for (const std::string& err : errors) {
      if (!err.empty()) {
        throw std::runtime_error(err + ": " + path);
      }
    }
  }
  return out;
}

// Partitioned parallel load for the sharded service layer: decodes the file
// with the bounds-checked parallel loader above, then scatters every edge to
// part_of(src) — two deterministic parallel passes (count per span/part,
// prefix, place), so each part's edge list keeps CSR (src, dst) order and
// the concatenation of all parts is exactly LoadLsgbin's output. part_of
// must be total over [0, num_vertices) and return values < num_parts
// (a ShardMap::ShardOf is the intended argument).
template <typename PartF>
std::vector<std::vector<Edge>> LoadLsgbinPartitioned(const std::string& path,
                                                     uint32_t num_parts,
                                                     PartF&& part_of,
                                                     ThreadPool* pool = nullptr) {
  LoadedGraph g = LoadLsgbin(path, pool);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::Global();
  std::vector<std::vector<Edge>> parts(num_parts);
  if (num_parts == 0 || g.edges.empty()) {
    return parts;
  }
  // Fixed contiguous spans (not pool self-scheduling) so the counting and
  // placement passes agree on which span owns which edges.
  const size_t nspans = std::min<size_t>(
      g.edges.size(), std::max<size_t>(1, p.num_threads() * 4));
  const size_t span_len = (g.edges.size() + nspans - 1) / nspans;
  std::vector<std::vector<size_t>> counts(nspans,
                                          std::vector<size_t>(num_parts, 0));
  p.ParallelFor(
      0, nspans,
      [&](size_t sp) {
        size_t lo = sp * span_len;
        size_t hi = std::min(lo + span_len, g.edges.size());
        std::vector<size_t>& c = counts[sp];
        for (size_t i = lo; i < hi; ++i) {
          ++c[part_of(g.edges[i].src)];
        }
      },
      /*grain=*/1);
  // offsets[sp][pt] = where span sp's part-pt run starts in parts[pt].
  std::vector<size_t> totals(num_parts, 0);
  std::vector<std::vector<size_t>> offsets(nspans,
                                           std::vector<size_t>(num_parts, 0));
  for (size_t sp = 0; sp < nspans; ++sp) {
    for (uint32_t pt = 0; pt < num_parts; ++pt) {
      offsets[sp][pt] = totals[pt];
      totals[pt] += counts[sp][pt];
    }
  }
  for (uint32_t pt = 0; pt < num_parts; ++pt) {
    parts[pt].resize(totals[pt]);
  }
  p.ParallelFor(
      0, nspans,
      [&](size_t sp) {
        size_t lo = sp * span_len;
        size_t hi = std::min(lo + span_len, g.edges.size());
        std::vector<size_t> cursor = offsets[sp];
        for (size_t i = lo; i < hi; ++i) {
          uint32_t pt = part_of(g.edges[i].src);
          parts[pt][cursor[pt]++] = g.edges[i];
        }
      },
      /*grain=*/1);
  return parts;
}

}  // namespace lsg

#endif  // SRC_GEN_LSGBIN_H_
