// Tunables of the LSGraph representation (paper §5 "Graph Data").
#ifndef SRC_CORE_OPTIONS_H_
#define SRC_CORE_OPTIONS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/cache.h"
#include "src/util/graph_types.h"

namespace lsg {

// Engine-wide update counters, shared by all structures of one graph.
// Atomic because batch updates run one vertex per thread.
//
// LSG_CORE_STATS is the one list of counters, in declaration order:
// X(name) once per field. The CoreStats members and Clear() below, the
// telemetry rows (MetricRegistry::AddCoreStats, "corestats.<name>") and
// the cross-shard sum (ShardedGraph::AggregateStats) all expand it, so a
// new counter is one line here.
#define LSG_CORE_STATS(X)                                                     \
  X(ria_to_hitree_conversions) /* §6.2's RIA→HITree count */                  \
  X(ria_expansions)                                                           \
  X(lia_child_creations)       /* vertical movements */                       \
                                                                              \
  /* Downward conversions, the delete-path mirror of §6.2's upward ones:      \
     a HITree root that shrinks below M/2 re-bulkloads flat, a RIA that       \
     shrinks below A/2 becomes a plain array, and a RIA whose occupancy       \
     falls well below 1/α rebuilds at the α target and releases               \
     capacity. */                                                             \
  X(hitree_to_ria_conversions)                                                \
  X(ria_to_array_conversions)                                                 \
  X(ria_contractions)                                                         \
                                                                              \
  /* Compressed-leaf (CRIA) instrumentation. bytes_resident is a gauge:       \
     the live footprint of every compressed adjacency structure wired to      \
     these stats (each structure adds its footprint deltas as it              \
     grows/shrinks and subtracts itself on destruction).                      \
     neighbors_decoded counts ids materialized from delta-varint payloads     \
     — by traversal, point lookups, and update-path block decodes alike —     \
     so the locality-vs-decode tradeoff is visible next to the timings it     \
     explains. cria_recompressions counts re-encodes wider than one block     \
     (windowed redistributions, slack rebuilds, grouped-batch merges). */     \
  X(bytes_resident)                                                           \
  X(neighbors_decoded)                                                        \
  X(cria_recompressions)                                                      \
                                                                              \
  /* Pull-mode EdgeMap instrumentation (§6.3): how much of the scanned        \
     vertices' adjacency was actually decoded before cond(v) ended each       \
     scan, and how often EdgeMap ran in each direction. Engine-agnostic —     \
     populated by the runtime via EdgeMapOptions::stats, not by the           \
     engines. */                                                              \
  X(pull_neighbors_decoded)                                                   \
  X(pull_degree_scanned)                                                      \
  X(pull_early_exits)                                                         \
  X(edgemap_pull_rounds)                                                      \
  X(edgemap_push_rounds)                                                      \
                                                                              \
  /* MVCC snapshot instrumentation (DESIGN.md §12). snapshots_live is a       \
     gauge of currently pinned Snapshot() handles. cow_copies counts          \
     HiNode-level copy-on-write clones taken because a pinned snapshot        \
     could still observe the node. deferred_frees counts retired              \
     structures handed to the epoch reclaimer instead of freed inline. */     \
  X(snapshots_live)                                                           \
  X(cow_copies)                                                               \
  X(deferred_frees)

struct CoreStats {
#define LSG_CORE_STATS_DECLARE(name) std::atomic<uint64_t> name{0};
  LSG_CORE_STATS(LSG_CORE_STATS_DECLARE)
#undef LSG_CORE_STATS_DECLARE

  void Clear() {
#define LSG_CORE_STATS_CLEAR(name) name = 0;
    LSG_CORE_STATS(LSG_CORE_STATS_CLEAR)
#undef LSG_CORE_STATS_CLEAR
  }
};

// When the write-ahead log is made durable relative to batch
// acknowledgement (DESIGN.md §14). The policy trades ingest throughput
// against the window of acknowledged-but-lost batches after a crash:
//   kPerCommit  fsync before every acknowledgement — zero loss window,
//               one fsync per batch on the critical path.
//   kGroup      acknowledgements wait for the next group fsync; one fsync
//               covers every batch appended since the last one — zero loss
//               window at a fraction of the fsync count (the default).
//   kInterval   fsync on a timer; acknowledgements do NOT wait. Crash may
//               lose up to interval_ms of acknowledged batches (the
//               synchronous_commit=off analogue, for soak ingest).
enum class FsyncPolicy : uint8_t { kPerCommit, kGroup, kInterval };

// Durability tier configuration (src/durability/, DESIGN.md §14). Lives
// next to Options so every layer validates its tunables through the same
// construction-time gate.
struct DurabilityOptions {
  // Directory holding per-shard WAL segments and checkpoints. Empty =
  // durability off (the WAL hook in the service layer compiles out to an
  // untaken branch).
  std::string dir;

  FsyncPolicy fsync = FsyncPolicy::kGroup;

  // kInterval: background fsync cadence.
  uint32_t interval_ms = 50;

  // Appender backpressure: bytes write()n but not yet fsynced before
  // Append blocks. A stalling disk therefore stalls the drainer, fills the
  // shard's bounded queue, and surfaces as submit-side latency instead of
  // unbounded dirty memory.
  size_t max_unsynced_bytes = size_t{8} << 20;

  // Auto-checkpoint: a shard whose WAL grew past this many bytes since its
  // last checkpoint freezes a snapshot and truncates the log. 0 = manual
  // Checkpoint() only.
  uint64_t checkpoint_wal_bytes = uint64_t{64} << 20;

  bool enabled() const { return !dir.empty(); }

  // "" when usable, else the first violation.
  std::string Validate() const {
    if (dir.empty()) {
      return "";  // disabled: remaining fields are inert
    }
    if (interval_ms == 0 || interval_ms > 60 * 1000) {
      return "durability.interval_ms must be in [1, 60000]";
    }
    if (max_unsynced_bytes < (size_t{64} << 10)) {
      return "durability.max_unsynced_bytes must be >= 64 KiB";
    }
    if (checkpoint_wal_bytes != 0 && checkpoint_wal_bytes < (1u << 16)) {
      return "durability.checkpoint_wal_bytes must be 0 or >= 64 KiB";
    }
    return "";
  }
};

struct Options {
  // Space amplification factor α: gapped arrays are allocated at
  // (element count * alpha). Default 1.2 (§6.5 trades update speed against
  // analytics locality and memory).
  double alpha = 1.2;

  // Threshold M: adjacency tails up to M ids use a RIA; above M they use a
  // HITree rooted at a LIA. Default 4096 = 2^12 (§6.5).
  uint32_t m_threshold = 4096;

  // Threshold A: tails up to A ids use a plain sorted array (no index).
  // The paper sets A to two cache lines of ids (§5).
  uint32_t a_threshold = 2 * kPerCacheLine<VertexId>;

  // Block size BKS for RIA and LIA, in ids; one cache line (§5).
  uint32_t block_size = kPerCacheLine<VertexId>;

  // Compressed leaf mode: adjacency tails store delta-varint payloads in
  // CRIA blocks (and, above M, in HITrees whose leaves are CRIAs) instead
  // of raw 4-byte ids. Trades decode work on every scan for ~2-3x fewer
  // resident adjacency bytes; analytics results are identical either way.
  bool compress_leaves = false;

  // CRIA block capacity in bytes. Two cache lines by default: the anchor
  // index plus at most two line transfers per point lookup (the RIA's
  // locality argument), with per-block overhead amortized over the denser
  // delta-varint payload.
  uint32_t cria_block_bytes = 2 * kCacheLineBytes;

  // The counters every structure of one engine reports to. An engine
  // overwrites this field with its own counters, so callers read them
  // through the engine's stats(); a structure built on its own (a bare
  // Ria, Cria or HiNode) reports here, or nowhere when null.
  CoreStats* stats = nullptr;

  // Returns "" when the configuration is usable, else a one-line
  // description of the first violation. Engines call this on construction
  // and refuse to start (std::invalid_argument) instead of failing deep
  // inside a conversion or re-encode path hours into an ingest.
  std::string Validate() const {
    if (!(alpha >= 1.0) || alpha > 64.0) {
      return "alpha must be in [1, 64] (space amplification factor)";
    }
    // No upper bound on M: ~0u is a legitimate setting meaning "never
    // convert a RIA to a HITree" (the ablation benchmarks rely on it).
    if (m_threshold == 0) {
      return "m_threshold must be >= 1";
    }
    if (a_threshold == 0 || a_threshold > m_threshold) {
      return "a_threshold must be in [1, m_threshold]";
    }
    if (block_size == 0 || block_size > m_threshold) {
      return "block_size must be in [1, m_threshold]";
    }
    if (compress_leaves) {
      // A CRIA block stores a varint run after its raw 4-byte anchor; below
      // 16 bytes the per-block metadata outweighs the payload, and the
      // block-offset fields inside Cria are 16-bit, so 65534 is the hard
      // structural ceiling (previously an assert deep in cria.cpp).
      if (cria_block_bytes < 16 || cria_block_bytes > 65534) {
        return "cria_block_bytes must be in [16, 65534]";
      }
    }
    return "";
  }
};

}  // namespace lsg

#endif  // SRC_CORE_OPTIONS_H_
