// Sorting and batch-preparation utilities for edge batches.
//
// Batch ingestion (paper §5) sorts updates by (src, dst) before grouping them
// by source vertex. The serial LSD radix sort below is kept as the reference
// (and small-input) path; ParallelSortEdges / PrepareBatch implement the
// parallel two-level pipeline every engine routes batches through:
//
//   1. MSD partition on the high bits of the used key range — per-block
//      histograms + prefix-sum scatter (SampleSort-style), so each bucket
//      owns a contiguous, disjoint key range.
//   2. Per-bucket LSD passes over the remaining low bits (comparison sort
//      for small buckets), scheduled largest-bucket-first.
//   3. A fused finalization pass per bucket that deduplicates, detects
//      per-source group boundaries, and compacts into the output in one
//      scan — the two serial O(B) scans of the old pipeline are gone.
//
// Duplicates can never span MSD buckets (the bucket is a function of the
// full key), and the only cross-bucket coupling is whether a bucket's first
// source continues the previous bucket's last group; that is reconciled with
// one O(#buckets) scan between the count and write phases.
#ifndef SRC_UTIL_SORT_H_
#define SRC_UTIL_SORT_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "src/parallel/thread_pool.h"
#include "src/util/graph_types.h"
#include "src/util/timer.h"

namespace lsg {

inline uint64_t EdgeKey(const Edge& e) {
  return (uint64_t{e.src} << 32) | e.dst;
}

namespace sort_internal {

// True iff a histogram counter of type CounterT can count `n` elements
// without wrapping. Production histograms use size_t (a std::vector can
// never exceed SIZE_MAX elements, so the guard is vacuously true there);
// the template stays so tests can exercise the overflow condition with a
// deliberately narrow counter at a synthetic small bound.
template <typename CounterT>
constexpr bool CountersCanHold(uint64_t n) {
  return n <= std::numeric_limits<CounterT>::max();
}

}  // namespace sort_internal

// LSD radix sort by (src, dst), 4 passes of 16 bits. Stable; sorts in place.
// Serial reference path; also used below the parallel-cutover threshold.
//
// Histogram and prefix-sum counters are size_t: with the former uint32_t
// counters, any batch of >= 2^32 edges silently wrapped the per-bucket
// counts, corrupting the prefix sums (and therefore the scatter) with no
// diagnostic. size_t counts anything a std::vector can hold.
inline void RadixSortEdges(std::vector<Edge>& edges) {
  constexpr int kBits = 16;
  constexpr size_t kBuckets = size_t{1} << kBits;
  static_assert(sort_internal::CountersCanHold<size_t>(
                    std::numeric_limits<uint32_t>::max()),
                "histogram counters must cover > 2^32-edge batches");
  if (edges.size() < 2048) {
    std::sort(edges.begin(), edges.end());
    return;
  }
  // Sorted input (a checkpoint bulk load: DumpEdges writes edges in order)
  // costs one read pass and allocates nothing. Unsorted input stops the
  // check at its first descent.
  if (std::is_sorted(edges.begin(), edges.end(),
                     [](const Edge& a, const Edge& b) {
                       return EdgeKey(a) < EdgeKey(b);
                     })) {
    return;
  }
  std::vector<Edge> tmp(edges.size());
  std::vector<size_t> count(kBuckets);
  Edge* from = edges.data();
  Edge* to = tmp.data();
  for (int pass = 0; pass < 4; ++pass) {
    int shift = pass * kBits;
    std::fill(count.begin(), count.end(), 0);
    for (size_t i = 0; i < edges.size(); ++i) {
      ++count[(EdgeKey(from[i]) >> shift) & (kBuckets - 1)];
    }
    size_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      size_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (size_t i = 0; i < edges.size(); ++i) {
      to[count[(EdgeKey(from[i]) >> shift) & (kBuckets - 1)]++] = from[i];
    }
    std::swap(from, to);
  }
  // Four passes end with the data back in `edges` (even number of swaps).
}

// Removes adjacent duplicates from a sorted edge vector.
inline void DedupSortedEdges(std::vector<Edge>& edges) {
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

// Optional per-phase timing filled by PrepareBatch for the benchmark phase
// breakdown (sort = partition + per-bucket sort; group = fused dedup /
// boundary detection / compaction + apply-order construction).
struct PrepareStats {
  double sort_seconds = 0.0;
  double group_seconds = 0.0;
};

// A sorted, deduplicated batch with per-source group boundaries and a
// skew-aware apply order. starts.size() == groups + 1 (starts.back() ==
// edges.size()); order is a permutation of [0, groups) with groups arranged
// (approximately) largest-first so a hub group starts executing before the
// tail of small groups, instead of serializing after them.
struct PreparedBatch {
  std::vector<Edge> edges;
  std::vector<size_t> starts;
  std::vector<uint32_t> order;

  size_t groups() const { return starts.empty() ? 0 : starts.size() - 1; }
  size_t group_begin(size_t g) const { return starts[g]; }
  size_t group_end(size_t g) const { return starts[g + 1]; }
  VertexId group_source(size_t g) const { return edges[starts[g]].src; }
};

namespace sort_internal {

// Below this size the serial sort wins; must stay >= 2048 so the serial
// path's std::sort shortcut and the parallel path agree on small inputs.
inline constexpr size_t kParallelSortMin = size_t{1} << 14;
// MSD fan-out: 2^8 buckets over the top bits of the used key range.
inline constexpr int kMsdBits = 8;
// Buckets below this size use std::sort instead of LSD passes.
inline constexpr size_t kSmallBucket = 2048;

inline void SerialPrepare(std::vector<Edge>& edges, std::vector<size_t>* starts,
                          PrepareStats* stats) {
  Timer t;
  RadixSortEdges(edges);
  if (stats != nullptr) {
    stats->sort_seconds = t.Seconds();
    t.Reset();
  }
  DedupSortedEdges(edges);
  if (starts != nullptr) {
    starts->clear();
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i == 0 || edges[i].src != edges[i - 1].src) {
        starts->push_back(i);
      }
    }
    starts->push_back(edges.size());
  }
  if (stats != nullptr) {
    stats->group_seconds = t.Seconds();
  }
}

// Sorts `edges` by (src, dst) and removes duplicates, using the two-level
// MSD/LSD parallel pipeline with dedup and group-boundary detection fused
// into the final compaction pass. If `starts` is non-null it receives the
// per-source group boundaries (the fused replacement for the old serial
// boundary scan). Output is byte-identical to RadixSortEdges +
// DedupSortedEdges regardless of thread count.
inline void ParallelPrepare(std::vector<Edge>& edges, ThreadPool& pool,
                            std::vector<size_t>* starts,
                            PrepareStats* stats = nullptr) {
  const size_t n = edges.size();
  if (n < kParallelSortMin || pool.num_threads() == 1) {
    SerialPrepare(edges, starts, stats);
    return;
  }
  const size_t nthreads = pool.num_threads();
  Timer phase_timer;

  // ---- Key-range reduction (parallel min/max over contiguous blocks). ----
  const size_t num_blocks = std::min(n, nthreads * 8);
  const size_t block_size = (n + num_blocks - 1) / num_blocks;
  auto block_range = [&](size_t b) {
    size_t lo = b * block_size;
    return std::pair<size_t, size_t>{lo, std::min(n, lo + block_size)};
  };
  std::vector<uint64_t> bmin(num_blocks, ~uint64_t{0});
  std::vector<uint64_t> bmax(num_blocks, 0);
  pool.ParallelFor(
      0, num_blocks,
      [&](size_t b) {
        auto [lo, hi] = block_range(b);
        uint64_t mn = ~uint64_t{0}, mx = 0;
        for (size_t i = lo; i < hi; ++i) {
          uint64_t k = EdgeKey(edges[i]);
          mn = std::min(mn, k);
          mx = std::max(mx, k);
        }
        bmin[b] = mn;
        bmax[b] = mx;
      },
      1);
  uint64_t min_key = ~uint64_t{0}, max_key = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    min_key = std::min(min_key, bmin[b]);
    max_key = std::max(max_key, bmax[b]);
  }
  if (min_key == max_key) {
    // Every edge is identical: dedup to one element, one group.
    edges.resize(1);
    if (starts != nullptr) {
      *starts = {0, 1};
    }
    if (stats != nullptr) {
      stats->sort_seconds = phase_timer.Seconds();
    }
    return;
  }

  // ---- MSD partition on the top kMsdBits of the *used* key range. ----
  // Subtracting min_key preserves order and makes the split adapt to the
  // batch (a single-hub batch with one src partitions on dst bits instead
  // of collapsing into one bucket).
  const uint64_t range = max_key - min_key;
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(range)) - kMsdBits);
  const size_t num_buckets = static_cast<size_t>(range >> shift) + 1;
  auto bucket_of = [&](const Edge& e) {
    return static_cast<size_t>((EdgeKey(e) - min_key) >> shift);
  };

  // Per-block histograms; hist[b * num_buckets + k] becomes block b's write
  // cursor for bucket k after the prefix pass (stable scatter: blocks in
  // order, elements within a block in order).
  std::vector<size_t> hist(num_blocks * num_buckets, 0);
  pool.ParallelFor(
      0, num_blocks,
      [&](size_t b) {
        auto [lo, hi] = block_range(b);
        size_t* h = hist.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) {
          ++h[bucket_of(edges[i])];
        }
      },
      1);
  std::vector<size_t> bstart(num_buckets + 1);
  size_t sum = 0;
  for (size_t k = 0; k < num_buckets; ++k) {
    bstart[k] = sum;
    for (size_t b = 0; b < num_blocks; ++b) {
      size_t c = hist[b * num_buckets + k];
      hist[b * num_buckets + k] = sum;
      sum += c;
    }
  }
  bstart[num_buckets] = n;

  std::vector<Edge> tmp(n);
  pool.ParallelFor(
      0, num_blocks,
      [&](size_t b) {
        auto [lo, hi] = block_range(b);
        size_t* h = hist.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) {
          tmp[h[bucket_of(edges[i])]++] = edges[i];
        }
      },
      1);

  // ---- Per-bucket sort of the remaining `shift` low bits. ----
  // Buckets are scheduled largest-first so one heavy bucket (skewed rMat
  // batches) starts immediately instead of landing last.
  std::vector<uint32_t> bucket_order(num_buckets);
  for (size_t k = 0; k < num_buckets; ++k) {
    bucket_order[k] = static_cast<uint32_t>(k);
  }
  std::sort(bucket_order.begin(), bucket_order.end(),
            [&](uint32_t a, uint32_t b) {
              return bstart[a + 1] - bstart[a] > bstart[b + 1] - bstart[b];
            });

  const int passes = (shift + 15) / 16;
  Edge* const a_buf = edges.data();  // original storage, free after scatter
  Edge* const b_buf = tmp.data();    // holds the MSD-partitioned data
  // LSD ping-pongs b_buf -> a_buf -> b_buf ...; all buckets share the same
  // pass count, so the sorted side has one global parity.
  Edge* const sorted = (passes % 2 == 0) ? b_buf : a_buf;
  Edge* const out = (passes % 2 == 0) ? a_buf : b_buf;

  // size_t counters for the same reason as RadixSortEdges: one skewed MSD
  // bucket can hold nearly the whole batch, so uint32_t would wrap at 2^32.
  std::vector<std::vector<size_t>> thread_counts(nthreads);
  pool.ParallelForChunked(
      0, num_buckets,
      [&](size_t lo_idx, size_t hi_idx, size_t tid) {
        for (size_t oi = lo_idx; oi < hi_idx; ++oi) {
          size_t k = bucket_order[oi];
          size_t lo = bstart[k], hi = bstart[k + 1];
          size_t m = hi - lo;
          if (m == 0) {
            continue;
          }
          if (m < kSmallBucket || passes == 0) {
            std::sort(b_buf + lo, b_buf + hi);
            if (sorted != b_buf) {
              std::copy(b_buf + lo, b_buf + hi, a_buf + lo);
            }
            continue;
          }
          std::vector<size_t>& count = thread_counts[tid];
          count.resize(size_t{1} << 16);
          Edge* from = b_buf;
          Edge* to = a_buf;
          for (int pass = 0; pass < passes; ++pass) {
            int s = pass * 16;
            std::fill(count.begin(), count.end(), 0);
            for (size_t i = lo; i < hi; ++i) {
              ++count[((EdgeKey(from[i]) - min_key) >> s) & 0xFFFF];
            }
            size_t c_sum = 0;
            for (size_t c = 0; c < count.size(); ++c) {
              size_t c_cur = count[c];
              count[c] = c_sum;
              c_sum += c_cur;
            }
            for (size_t i = lo; i < hi; ++i) {
              to[lo + count[((EdgeKey(from[i]) - min_key) >> s) & 0xFFFF]++] =
                  from[i];
            }
            std::swap(from, to);
          }
        }
      },
      1);
  if (stats != nullptr) {
    stats->sort_seconds = phase_timer.Seconds();
    phase_timer.Reset();
  }

  // ---- Fused dedup + group detection + compaction. ----
  // Count phase: per-bucket unique and group-start totals. Duplicates are
  // bucket-local by construction; only group continuation crosses buckets.
  std::vector<size_t> ucount(num_buckets, 0);
  std::vector<size_t> gcount(num_buckets, 0);
  const bool want_groups = starts != nullptr;
  pool.ParallelForChunked(
      0, num_buckets,
      [&](size_t lo_idx, size_t hi_idx, size_t /*tid*/) {
        for (size_t oi = lo_idx; oi < hi_idx; ++oi) {
          size_t k = bucket_order[oi];
          size_t lo = bstart[k], hi = bstart[k + 1];
          if (lo == hi) {
            continue;
          }
          size_t u = 1, g = 1;
          for (size_t i = lo + 1; i < hi; ++i) {
            if (sorted[i] != sorted[i - 1]) {
              ++u;
              g += sorted[i].src != sorted[i - 1].src;
            }
          }
          ucount[k] = u;
          if (want_groups) {
            gcount[k] = g;
          }
        }
      },
      1);

  // Cross-bucket reconciliation + prefix sums (O(num_buckets), <= 256).
  std::vector<size_t> ubase(num_buckets + 1, 0);
  std::vector<size_t> gbase(num_buckets + 1, 0);
  std::vector<uint8_t> first_is_group(num_buckets, 1);
  VertexId prev_src = kInvalidVertex;
  bool have_prev = false;
  size_t utotal = 0, gtotal = 0;
  for (size_t k = 0; k < num_buckets; ++k) {
    ubase[k] = utotal;
    gbase[k] = gtotal;
    if (bstart[k] == bstart[k + 1]) {
      continue;
    }
    if (want_groups && have_prev && sorted[bstart[k]].src == prev_src) {
      first_is_group[k] = 0;
      --gcount[k];
    }
    utotal += ucount[k];
    gtotal += gcount[k];
    prev_src = sorted[bstart[k + 1] - 1].src;
    have_prev = true;
  }
  ubase[num_buckets] = utotal;
  gbase[num_buckets] = gtotal;

  if (want_groups) {
    starts->assign(gtotal + 1, 0);
  }
  // Write phase: compact each bucket's unique run into `out` at its global
  // offset, emitting group starts in the same scan.
  pool.ParallelForChunked(
      0, num_buckets,
      [&](size_t lo_idx, size_t hi_idx, size_t /*tid*/) {
        for (size_t oi = lo_idx; oi < hi_idx; ++oi) {
          size_t k = bucket_order[oi];
          size_t lo = bstart[k], hi = bstart[k + 1];
          if (lo == hi) {
            continue;
          }
          size_t w = ubase[k];
          size_t gw = gbase[k];
          if (want_groups && first_is_group[k]) {
            (*starts)[gw++] = w;
          }
          out[w++] = sorted[lo];
          for (size_t i = lo + 1; i < hi; ++i) {
            if (sorted[i] == sorted[i - 1]) {
              continue;
            }
            if (want_groups && sorted[i].src != sorted[i - 1].src) {
              (*starts)[gw++] = w;
            }
            out[w++] = sorted[i];
          }
          assert(w == ubase[k] + ucount[k]);
        }
      },
      1);
  if (want_groups) {
    (*starts)[gtotal] = utotal;
  }
  if (out != edges.data()) {
    std::swap(edges, tmp);
  }
  edges.resize(utotal);
  if (stats != nullptr) {
    stats->group_seconds = phase_timer.Seconds();
  }
}

// Builds the largest-first apply order: a counting sort of group ids by
// descending size class (bit_width of the group size). Within a class sizes
// differ by < 2x, so the order is near-optimal for self-scheduling while
// costing one O(G) parallel pass instead of an O(G log G) sort.
inline void BuildLargestFirstOrder(const std::vector<size_t>& starts,
                                   ThreadPool& pool,
                                   std::vector<uint32_t>* order) {
  const size_t groups = starts.size() <= 1 ? 0 : starts.size() - 1;
  order->resize(groups);
  if (groups == 0) {
    return;
  }
  assert(groups < ~uint32_t{0});
  constexpr size_t kClasses = 64;  // bit_width(size) for size >= 1
  auto class_of = [&](size_t g) {
    // Descending: big sizes -> low class index.
    return kClasses - std::bit_width(starts[g + 1] - starts[g]);
  };
  const size_t nthreads = pool.num_threads();
  const size_t num_blocks = std::min(groups, nthreads * 8);
  const size_t block_size = (groups + num_blocks - 1) / num_blocks;
  std::vector<size_t> hist(num_blocks * kClasses, 0);
  pool.ParallelFor(
      0, num_blocks,
      [&](size_t b) {
        size_t lo = b * block_size, hi = std::min(groups, lo + block_size);
        size_t* h = hist.data() + b * kClasses;
        for (size_t g = lo; g < hi; ++g) {
          ++h[class_of(g)];
        }
      },
      1);
  size_t sum = 0;
  for (size_t c = 0; c < kClasses; ++c) {
    for (size_t b = 0; b < num_blocks; ++b) {
      size_t cur = hist[b * kClasses + c];
      hist[b * kClasses + c] = sum;
      sum += cur;
    }
  }
  pool.ParallelFor(
      0, num_blocks,
      [&](size_t b) {
        size_t lo = b * block_size, hi = std::min(groups, lo + block_size);
        size_t* h = hist.data() + b * kClasses;
        for (size_t g = lo; g < hi; ++g) {
          (*order)[h[class_of(g)]++] = static_cast<uint32_t>(g);
        }
      },
      1);
}

}  // namespace sort_internal

// Parallel sort + dedup of an edge batch. Output is byte-identical to
// RadixSortEdges followed by DedupSortedEdges, for any thread count.
inline void ParallelSortEdges(std::vector<Edge>& edges, ThreadPool& pool) {
  sort_internal::ParallelPrepare(edges, pool, nullptr);
}

// Full ingestion front half shared by every engine: parallel sort, fused
// dedup + per-source grouping, and the largest-first apply order. This is
// the single replacement for the per-engine GroupBySource copies.
inline PreparedBatch PrepareBatch(std::vector<Edge> edges, ThreadPool& pool,
                                  PrepareStats* stats = nullptr) {
  PreparedBatch pb;
  pb.edges = std::move(edges);
  sort_internal::ParallelPrepare(pb.edges, pool, &pb.starts, stats);
  Timer t;
  sort_internal::BuildLargestFirstOrder(pb.starts, pool, &pb.order);
  if (stats != nullptr) {
    stats->group_seconds += t.Seconds();
  }
  return pb;
}

// Default lookahead hook of ForEachGroupLargestFirst: does nothing.
struct NoLookahead {
  void operator()(std::span<const uint32_t> /*chunk*/, size_t /*i*/) const {}
};

// Runs f(g) for every group of `pb`, scheduling groups largest-first with a
// small self-scheduling grain so a hub group cannot serialize the tail.
// Each thread takes a chunk of pb.order at a time and applies it in order;
// before f(chunk[i]) runs, ahead(chunk, i) may start loads for the chunk's
// later groups (LSGraph's apply pipeline, DESIGN.md §7). If f returns a
// count, the counts are summed per chunk and the total is returned.
template <typename F, typename Ahead = NoLookahead>
size_t ForEachGroupLargestFirst(const PreparedBatch& pb, ThreadPool& pool,
                                F&& f, Ahead&& ahead = {}) {
  constexpr bool kCounts = !std::is_void_v<std::invoke_result_t<F&, size_t>>;
  size_t groups = pb.groups();
  size_t grain = std::max<size_t>(1, groups / (pool.num_threads() * 256));
  std::atomic<size_t> total{0};
  pool.ParallelForChunked(
      0, groups,
      [&](size_t lo, size_t hi, size_t /*tid*/) {
        std::span<const uint32_t> chunk(pb.order.data() + lo, hi - lo);
        size_t sum = 0;
        for (size_t i = 0; i < chunk.size(); ++i) {
          ahead(chunk, i);
          if constexpr (kCounts) {
            sum += f(chunk[i]);
          } else {
            f(chunk[i]);
          }
        }
        if constexpr (kCounts) {
          total.fetch_add(sum, std::memory_order_relaxed);
        }
      },
      grain);
  return total.load(std::memory_order_relaxed);
}

}  // namespace lsg

#endif  // SRC_UTIL_SORT_H_
