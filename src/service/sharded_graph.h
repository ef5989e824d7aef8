// ShardedGraph: the service layer's engine container (DESIGN.md §13).
//
// Owns N engine instances (the entire pre-existing library, unchanged,
// behind `GraphView`), each with
//   - a bounded ingest queue (backpressure: Submit blocks at queue_depth),
//   - one drainer thread that applies queued batches to the shard's engine,
//   - a worker slice of the thread budget: the injected budget of
//     engine_threads is striped max(1, budget / num_shards) per shard, so N
//     engines applying batches concurrently never oversubscribe the machine
//     the way N engines each defaulting to ThreadPool::Global()'s hardware
//     width would,
//   - a continuously refreshed read view: after every applied batch the
//     drainer pins a fresh `Snapshot()` (PR 6) and swaps it into the
//     shard's view slot. Readers copy the slot's shared_ptr (a pointer
//     swap-sized critical section, never the engine's writer gate), so
//     point reads and k-hop queries NEVER block on ingest — they read the
//     newest batch boundary, with staleness bounded by one in-flight batch.
//
// Adjacency is source-partitioned by a pluggable ShardMap: shard s holds
// every edge (u, v) with ShardOf(u) == s over the full (global) vertex id
// space, so engines need no id translation, per-(src,dst) update order is
// preserved by the per-shard FIFO, and the union of shard adjacencies is
// exactly the single-engine graph — the oracle equivalence bench_service
// and tests/service_test.cpp assert.
//
// Quiesced admin operations (BuildFromEdges/BuildFromLsgbin/AddVertices,
// CheckInvariants, destruction) must not run concurrently with reads or
// submits: they flush the queues and, for AddVertices, re-pin every view
// (the engine contract forbids snapshot reads racing vertex-array growth).
#ifndef SRC_SERVICE_SHARDED_GRAPH_H_
#define SRC_SERVICE_SHARDED_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lsgraph.h"
#include "src/core/options.h"
#include "src/service/shard_map.h"
#include "src/util/graph_types.h"

namespace lsg {

class WalWriter;

// What a Recover() call reconstructed, summed over shards (for operator
// logging — lsg_serve prints it at startup).
struct RecoveryInfo {
  uint32_t checkpoints_loaded = 0;   // shards restored from a checkpoint
  uint32_t checkpoints_skipped = 0;  // damaged checkpoint files fallen past
  uint64_t wal_records_replayed = 0;
  uint64_t torn_bytes_truncated = 0;
  uint64_t edges_replayed = 0;
};

// Result of an ingest submission. kStopped: Stop() already ran; the batch
// was NOT enqueued (the caller sees a clean rejection instead of a hang or
// a torn half-ingest during teardown).
enum class SubmitStatus : uint8_t { kOk, kStopped };

struct ServiceOptions {
  uint32_t num_shards = 4;

  // Pending batches a shard's queue holds before Submit blocks. Bounded so
  // a writer outpacing the drainers surfaces as submit-side latency (which
  // the workload driver measures) instead of unbounded memory growth.
  size_t queue_depth = 64;

  // Total engine-worker thread budget, striped across shards. 0 = the
  // injected pool's width (or hardware concurrency when pool is null).
  size_t engine_threads = 0;

  // Shared pool for service-side fan-out (cross-shard k-hop expansion,
  // partitioned builds). Null = ThreadPool::Global(). Per-shard engines do
  // NOT run on this pool — they get their stripe (see above).
  ThreadPool* pool = nullptr;

  // Per-shard engine configuration. Each shard's engine runs on its striped
  // pool and keeps its own counters, which AggregateStats sums.
  Options engine;

  // Durability tier (DESIGN.md §14). durability.dir non-empty turns on one
  // WAL per shard under <dir>/shard-<s>/ plus checkpoints; every
  // acknowledged batch survives a crash (per the fsync policy's contract).
  DurabilityOptions durability;

  // "" when usable, else the first violation (engine options included).
  std::string Validate() const {
    if (num_shards == 0 || num_shards > 4096) {
      return "num_shards must be in [1, 4096]";
    }
    if (queue_depth == 0 || queue_depth > (size_t{1} << 20)) {
      return "queue_depth must be in [1, 2^20]";
    }
    if (engine_threads > 4096) {
      return "engine_threads must be <= 4096";
    }
    if (std::string err = durability.Validate(); !err.empty()) {
      return err;
    }
    return engine.Validate();
  }
};

class ShardedGraph {
 public:
  enum class UpdateKind : uint8_t { kInsert, kDelete };

  // Throws std::invalid_argument on invalid options or a shard_map whose
  // num_shards() disagrees with options.num_shards (null = HashShardMap).
  ShardedGraph(VertexId num_vertices, std::unique_ptr<ShardMap> shard_map,
               ServiceOptions options = {});
  ~ShardedGraph();

  ShardedGraph(const ShardedGraph&) = delete;
  ShardedGraph& operator=(const ShardedGraph&) = delete;

  uint32_t num_shards() const { return options_.num_shards; }
  const ShardMap& shard_map() const { return *shard_map_; }
  const ServiceOptions& options() const { return options_; }
  LSGraph& shard_engine(uint32_t s) { return *shards_[s]->engine; }
  const LSGraph& shard_engine(uint32_t s) const { return *shards_[s]->engine; }

  // ---- Quiesced admin operations (not concurrent with reads/submits) ----

  // Partitions the edge list by ShardOf(src) and bulk-builds every shard in
  // parallel on the service pool; refreshes all read views.
  void BuildFromEdges(std::vector<Edge> edges);

  // Partitioned parallel load: .lsgbin ranges decode on the service pool
  // and scatter per shard, then each shard bulk-builds its slice.
  void BuildFromLsgbin(const std::string& path);

  // Grows every shard's vertex universe (all shards share the global id
  // space). Flushes, releases the service's view pins, grows, re-pins.
  VertexId AddVertices(VertexId count);

  // ---- Durability (no-ops unless options.durability.enabled()) ----

  // Rebuilds state from the durability directory: per shard, the newest
  // valid checkpoint plus the WAL tail beyond its watermark (torn final
  // records truncated). Call once, on a freshly-constructed (empty)
  // instance, before any submit. The recovered state equals the original
  // run at some per-shard batch boundary no earlier than the last
  // acknowledgement (see tools/crash_fuzz.cpp for the exact contract).
  RecoveryInfo Recover();

  // Quiesced: flushes ingest, then freezes every shard to a
  // checkpoint-<lsn>.lsgbin, rotates its WAL, and garbage-collects
  // superseded files. Shards whose WAL grew past
  // durability.checkpoint_wal_bytes also do this automatically, per shard,
  // from their drainer (no global quiesce).
  void Checkpoint();

  // Rejects subsequent submits (kStopped), drains every queue, and forces
  // the WALs durable. Idempotent; reads stay valid. The clean-teardown
  // half of lsg_serve's SIGTERM path (the other half is a final
  // Checkpoint()).
  void Stop();
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // ---- Ingest pipeline ----

  // Splits the batch per shard and enqueues; returns once enqueued (blocks
  // only on backpressure). Per-shard FIFO order = submission order.
  SubmitStatus SubmitInsert(std::vector<Edge> batch);
  SubmitStatus SubmitDelete(std::vector<Edge> batch);

  // Same, but waits for every shard to apply its slice — and, with
  // durability on, for the batch's WAL records to be durable per the fsync
  // policy (the acknowledgement crash_fuzz holds us to). *applied (may be
  // null) receives the number of edges actually added/removed.
  SubmitStatus SubmitAndWait(UpdateKind kind, std::vector<Edge> batch,
                             size_t* applied = nullptr);

  // Blocks until every queue is empty, every in-flight batch has applied,
  // and every read view reflects the last applied batch.
  void Flush();

  // ---- Read path (never blocks on ingest) ----

  // The shard's current pinned snapshot. Safe from any thread; holding the
  // returned handle keeps that version readable while later batches land.
  std::shared_ptr<const GraphSnapshot> ReadView(uint32_t s) const;

  VertexId num_vertices() const { return num_vertices_; }
  // Sum over shards. Exact when flushed; a racy-but-consistent-per-shard
  // sample during ingest.
  EdgeCount num_edges() const;
  uint64_t oob_rejected() const;

  // Sums every shard engine's counters into *out (Clear()ed first).
  void AggregateStats(CoreStats* out) const;

  // Deep check, quiesced: every engine's invariants plus the partition
  // invariant (no shard holds adjacency for a vertex it does not own).
  bool CheckInvariants() const;

  // ---- Batch hook (DESIGN.md §15) ----

  // Invoked from shard s's drainer thread after each batch applies and the
  // shard's read view is re-pinned, and before the submit-side completion
  // is signalled — so SubmitAndWait/Flush returning implies the hook ran
  // for every applied batch. `edges` is the shard's slice of the submitted
  // batch; `view` is the freshly pinned post-batch snapshot (maintained
  // queries apply their delta against it without ever touching the
  // engine's writer gate). One hook per service; shards invoke it
  // concurrently, so the hook must be thread-safe across *different* shard
  // ids (per-shard it is serialized by the drainer). Set or clear (nullptr)
  // only while quiesced.
  using BatchHook = std::function<void(
      uint32_t shard, UpdateKind kind, std::span<const Edge> edges,
      const std::shared_ptr<const GraphSnapshot>& view)>;
  void SetBatchHook(BatchHook hook) { batch_hook_ = std::move(hook); }

  // ---- Test hooks ----

  // While paused, drainers finish their in-flight batch and then idle, so
  // queues fill deterministically (the backpressure test's lever).
  void PauseIngestForTest(bool paused);
  size_t PendingBatchesForTest(uint32_t s) const;

  // The shared fan-out pool (cross-shard k-hop expansion, partitioned
  // builds) — ServiceOptions::pool or ThreadPool::Global().
  ThreadPool& service_pool() const;

 private:
  // Submit-side completion: armed with the number of shard slices, each
  // drainer adds its applied count and decrements; Wait returns the total.
  struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
    size_t applied = 0;

    void Done(size_t n) {
      std::lock_guard<std::mutex> lk(mu);
      applied += n;
      if (--remaining == 0) {
        cv.notify_all();
      }
    }
    size_t Wait() {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [this] { return remaining == 0; });
      return applied;
    }
  };

  struct Task {
    UpdateKind kind;
    std::vector<Edge> edges;
    std::shared_ptr<Completion> done;  // null for fire-and-forget submits
  };

  struct Shard {
    // Destruction order (reverse of declaration): drainer joins first
    // (teardown sets stop), then the view pin releases, then the engine
    // (whose destructor drains the epoch reclaimer — safe only once the
    // pin is gone), then the worker-stripe pool.
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<LSGraph> engine;

    // Durability (null/"" when the tier is off). The WAL's destructor
    // syncs, so even an exceptional teardown leaves acknowledged records
    // on disk. Only the drainer and quiesced admin ops touch `wal`.
    std::string dur_dir;
    std::unique_ptr<WalWriter> wal;
    // Torn bytes the constructor's log scan truncated — captured there
    // because the truncation is invisible to Recover()'s later replay.
    uint64_t scan_torn_bytes = 0;

    mutable std::mutex view_mu;
    std::shared_ptr<const GraphSnapshot> view;

    mutable std::mutex mu;
    std::condition_variable cv_work;   // drainer: queue non-empty / stop
    std::condition_variable cv_space;  // submitters: below queue_depth
    std::condition_variable cv_idle;   // Flush: empty and not applying
    std::deque<Task> queue;
    bool applying = false;
    bool stop = false;

    std::thread drainer;
  };

  SubmitStatus Submit(UpdateKind kind, std::vector<Edge> batch,
                      std::shared_ptr<Completion> done);
  void DrainerLoop(uint32_t s);
  void RefreshView(uint32_t s);
  // Freezes shard s to a checkpoint and truncates its WAL. Caller must own
  // the shard's write side (its drainer, or a quiesced admin op).
  void CheckpointShard(uint32_t s);
  // Scatters edges into per-shard vectors by ShardOf(src).
  std::vector<std::vector<Edge>> PartitionBySrc(std::vector<Edge> edges) const;

  ServiceOptions options_;
  std::unique_ptr<ShardMap> shard_map_;
  BatchHook batch_hook_;
  VertexId num_vertices_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace lsg

#endif  // SRC_SERVICE_SHARDED_GRAPH_H_
