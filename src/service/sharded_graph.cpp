#include "src/service/sharded_graph.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/durability/checkpoint.h"
#include "src/durability/wal.h"
#include "src/gen/lsgbin.h"
#include "src/parallel/thread_pool.h"

namespace lsg {

ShardedGraph::ShardedGraph(VertexId num_vertices,
                           std::unique_ptr<ShardMap> shard_map,
                           ServiceOptions options)
    : options_(options), shard_map_(std::move(shard_map)),
      num_vertices_(num_vertices) {
  if (std::string err = options_.Validate(); !err.empty()) {
    throw std::invalid_argument("ShardedGraph: invalid ServiceOptions: " +
                                err);
  }
  if (shard_map_ == nullptr) {
    shard_map_ = std::make_unique<HashShardMap>(options_.num_shards);
  }
  if (shard_map_->num_shards() != options_.num_shards) {
    throw std::invalid_argument(
        "ShardedGraph: shard_map.num_shards() != options.num_shards");
  }

  // Stripe the engine-worker budget: with S shards each applying batches
  // concurrently, per-shard pools of budget/S workers keep the total at the
  // budget instead of S * hardware_concurrency (the oversubscription an
  // engine-per-shard naively built from defaults would create).
  size_t budget = options_.engine_threads;
  if (budget == 0) {
    budget = options_.pool != nullptr
                 ? options_.pool->num_threads()
                 : std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  size_t per_shard = std::max<size_t>(1, budget / options_.num_shards);

  if (options_.durability.enabled()) {
    EnsureDirectory(options_.durability.dir);
  }
  shards_.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->pool = std::make_unique<ThreadPool>(per_shard);
    shard->engine = std::make_unique<LSGraph>(num_vertices, options_.engine,
                                              shard->pool.get());
    if (options_.durability.enabled()) {
      shard->dur_dir =
          options_.durability.dir + "/shard-" + std::to_string(s);
      EnsureDirectory(shard->dur_dir);
      // Place the writer after everything already durable: the last valid
      // WAL record (this scan truncates a torn tail), or — when a
      // checkpoint's garbage collection emptied the log — the newest
      // checkpoint's filename watermark.
      WalReplayStats scan;
      const uint64_t last =
          std::max(ScanWalLastLsn(shard->dur_dir, &scan),
                   NewestCheckpointWatermark(shard->dur_dir));
      shard->scan_torn_bytes = scan.torn_bytes_truncated;
      shard->wal = std::make_unique<WalWriter>(shard->dur_dir, last + 1,
                                               options_.durability);
    }
    shards_.push_back(std::move(shard));
  }
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    RefreshView(s);
    shards_[s]->drainer = std::thread([this, s] { DrainerLoop(s); });
  }
}

ShardedGraph::~ShardedGraph() {
  // Teardown ordering audit (DESIGN.md §13): (1) drain the queues so no
  // submitted work is lost, (2) stop and join the drainers, (3) release the
  // service's view pins, (4) destroy the engines — their destructors prune
  // version chains and drain the epoch reclaimer, which requires every pin
  // gone — and (5) destroy the worker pools (members of Shard, declared
  // before the engine). External ReadView handles must already be gone
  // (snapshots must not outlive their engine).
  paused_.store(false, std::memory_order_release);
  Flush();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lk(shard->mu);
      shard->stop = true;
    }
    shard->cv_work.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->drainer.joinable()) {
      shard->drainer.join();
    }
    std::lock_guard<std::mutex> lk(shard->view_mu);
    shard->view.reset();
  }
  // shards_ destruction releases engines then pools per member order.
}

ThreadPool& ShardedGraph::service_pool() const {
  return options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
}

std::vector<std::vector<Edge>> ShardedGraph::PartitionBySrc(
    std::vector<Edge> edges) const {
  std::vector<std::vector<Edge>> parts(options_.num_shards);
  // Size each part up front so the scatter pass never reallocates.
  std::vector<size_t> counts(options_.num_shards, 0);
  for (const Edge& e : edges) {
    ++counts[shard_map_->ShardOf(e.src)];
  }
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    parts[s].reserve(counts[s]);
  }
  for (const Edge& e : edges) {
    parts[shard_map_->ShardOf(e.src)].push_back(e);
  }
  return parts;
}

void ShardedGraph::BuildFromEdges(std::vector<Edge> edges) {
  Flush();
  std::vector<std::vector<Edge>> parts = PartitionBySrc(std::move(edges));
  // One shard per service-pool slot; each build then fans out on its own
  // worker stripe.
  service_pool().ParallelFor(
      0, options_.num_shards,
      [this, &parts](size_t s) {
        shards_[s]->engine->BuildFromEdges(std::move(parts[s]));
      },
      /*grain=*/1);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    RefreshView(s);
  }
  // Bulk loads bypass the WAL (logging the whole graph would double the
  // write volume); the checkpoint IS their durable image. A crash mid-build
  // recovers the pre-build state — the build is not acknowledged as durable
  // until Checkpoint() returns.
  Checkpoint();
}

void ShardedGraph::BuildFromLsgbin(const std::string& path) {
  Flush();
  std::vector<std::vector<Edge>> parts = LoadLsgbinPartitioned(
      path, options_.num_shards,
      [this](VertexId v) { return shard_map_->ShardOf(v); }, &service_pool());
  service_pool().ParallelFor(
      0, options_.num_shards,
      [this, &parts](size_t s) {
        shards_[s]->engine->BuildFromEdges(std::move(parts[s]));
      },
      /*grain=*/1);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    RefreshView(s);
  }
  Checkpoint();  // see BuildFromEdges: the checkpoint is the durable image
}

VertexId ShardedGraph::AddVertices(VertexId count) {
  Flush();
  // WAL-before-apply: every shard logs the growth (each holds adjacency
  // over the GLOBAL id space, so each must replay it) before any engine
  // grows.
  std::vector<uint64_t> lsns(options_.num_shards, 0);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    if (shards_[s]->wal != nullptr) {
      lsns[s] = shards_[s]->wal->Append(WalRecordKind::kAddVertices, {},
                                        count);
    }
  }
  // The engine contract forbids snapshot reads racing vertex-array growth,
  // so the service's own pins release first and re-pin after. Caller-held
  // ReadView handles stay pinned at their version (reading them *during*
  // the growth is what the quiesced-admin-op contract forbids).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->view_mu);
    shard->view.reset();
  }
  VertexId first = num_vertices_;
  for (auto& shard : shards_) {
    VertexId got = shard->engine->AddVertices(count);
    (void)got;
  }
  num_vertices_ += count;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    RefreshView(s);
  }
  // Returning is the acknowledgement; hold it for durability.
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    if (shards_[s]->wal != nullptr) {
      shards_[s]->wal->WaitDurable(lsns[s]);
    }
  }
  return first;
}

SubmitStatus ShardedGraph::Submit(UpdateKind kind, std::vector<Edge> batch,
                                  std::shared_ptr<Completion> done) {
  if (stopped_.load(std::memory_order_acquire)) {
    // Clean rejection after Stop(): nothing is enqueued, so teardown never
    // races a half-distributed batch. (A submit that passed this check
    // concurrently with Stop() still lands wholly — the drainers keep
    // running until destruction — it is just not covered by Stop's sync.)
    return SubmitStatus::kStopped;
  }
  std::vector<std::vector<Edge>> parts = PartitionBySrc(std::move(batch));
  if (done != nullptr) {
    // Arm before any enqueue: a drainer may finish a slice while later
    // slices are still being enqueued.
    std::lock_guard<std::mutex> lk(done->mu);
    done->remaining = options_.num_shards;
  }
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    Shard& shard = *shards_[s];
    Task task{kind, std::move(parts[s]), done};
    std::unique_lock<std::mutex> lk(shard.mu);
    shard.cv_space.wait(lk, [&shard, this] {
      return shard.queue.size() < options_.queue_depth;
    });
    shard.queue.push_back(std::move(task));
    lk.unlock();
    shard.cv_work.notify_one();
  }
  return SubmitStatus::kOk;
}

SubmitStatus ShardedGraph::SubmitInsert(std::vector<Edge> batch) {
  return Submit(UpdateKind::kInsert, std::move(batch), nullptr);
}

SubmitStatus ShardedGraph::SubmitDelete(std::vector<Edge> batch) {
  return Submit(UpdateKind::kDelete, std::move(batch), nullptr);
}

SubmitStatus ShardedGraph::SubmitAndWait(UpdateKind kind,
                                         std::vector<Edge> batch,
                                         size_t* applied) {
  auto done = std::make_shared<Completion>();
  SubmitStatus status = Submit(kind, std::move(batch), done);
  if (status != SubmitStatus::kOk) {
    if (applied != nullptr) {
      *applied = 0;
    }
    return status;
  }
  size_t n = done->Wait();
  if (applied != nullptr) {
    *applied = n;
  }
  return SubmitStatus::kOk;
}

void ShardedGraph::Flush() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lk(shard->mu);
    shard->cv_idle.wait(lk, [&shard] {
      return shard->queue.empty() && !shard->applying;
    });
  }
}

void ShardedGraph::Stop() {
  stopped_.store(true, std::memory_order_release);
  // Drain-then-flush, deterministically: unblock drainers even if a test
  // left ingest paused, apply everything already enqueued, then force the
  // logs durable. Idempotent — a second call finds empty queues and clean
  // WALs.
  paused_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->cv_work.notify_all();
  }
  Flush();
  for (auto& shard : shards_) {
    if (shard->wal != nullptr) {
      shard->wal->Sync();
    }
  }
}

void ShardedGraph::CheckpointShard(uint32_t s) {
  Shard& shard = *shards_[s];
  // Everything appended is applied by now (the caller owns the shard's
  // write side), so the engine image is exactly the log through this LSN.
  const uint64_t watermark = shard.wal->last_appended();
  std::vector<Edge> edges = DumpEdges(*shard.engine);
  WriteCheckpoint(shard.dur_dir, shard.engine->num_vertices(), edges,
                  watermark);
  // Rotate syncs the outgoing segment before closing it, so GC never
  // deletes bytes whose only durable copy was the page cache.
  shard.wal->Rotate(watermark + 1);
  GarbageCollect(shard.dur_dir, watermark, shard.wal->segment_path());
}

void ShardedGraph::Checkpoint() {
  if (!options_.durability.enabled()) {
    return;
  }
  Flush();
  service_pool().ParallelFor(
      0, options_.num_shards, [this](size_t s) { CheckpointShard(s); },
      /*grain=*/1);
}

RecoveryInfo ShardedGraph::Recover() {
  RecoveryInfo total;
  if (!options_.durability.enabled()) {
    return total;
  }
  Flush();
  // Vertex growth during replay forbids concurrent snapshot reads, so the
  // service's pins release first and re-pin after (the AddVertices dance).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->view_mu);
    shard->view.reset();
  }
  std::vector<RecoveryInfo> per(options_.num_shards);
  service_pool().ParallelFor(
      0, options_.num_shards,
      [this, &per](size_t s) {
        Shard& shard = *shards_[s];
        RecoveryInfo& info = per[s];
        info.torn_bytes_truncated = shard.scan_torn_bytes;
        ShardRecovery rec = RecoverShardState(shard.dur_dir);
        if (rec.checkpoint.found) {
          info.checkpoints_loaded = 1;
          if (rec.checkpoint.num_vertices > shard.engine->num_vertices()) {
            shard.engine->AddVertices(rec.checkpoint.num_vertices -
                                      shard.engine->num_vertices());
          }
          shard.engine->BuildFromEdges(std::move(rec.checkpoint.edges));
        }
        info.checkpoints_skipped =
            static_cast<uint32_t>(rec.checkpoint.skipped.size());
        info.wal_records_replayed = rec.tail.size();
        info.torn_bytes_truncated += rec.wal_stats.torn_bytes_truncated;
        for (WalRecord& r : rec.tail) {
          switch (r.kind) {
            case WalRecordKind::kInsert:
              info.edges_replayed += r.edges.size();
              shard.engine->InsertBatch(r.edges);
              break;
            case WalRecordKind::kDelete:
              info.edges_replayed += r.edges.size();
              shard.engine->DeleteBatch(r.edges);
              break;
            case WalRecordKind::kAddVertices:
              shard.engine->AddVertices(static_cast<VertexId>(r.count));
              break;
          }
        }
      },
      /*grain=*/1);
  // Unacknowledged kAddVertices records can leave shards with different
  // vertex counts (one shard's record durable, another's torn off). Level
  // everyone up to the max — growth is monotonic and content-free, so this
  // recovers the only consistent universe containing every shard's edges.
  VertexId vmax = num_vertices_;
  for (auto& shard : shards_) {
    vmax = std::max(vmax, shard->engine->num_vertices());
  }
  for (auto& shard : shards_) {
    if (shard->engine->num_vertices() < vmax) {
      shard->engine->AddVertices(vmax - shard->engine->num_vertices());
    }
  }
  num_vertices_ = vmax;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    RefreshView(s);
    total.checkpoints_loaded += per[s].checkpoints_loaded;
    total.checkpoints_skipped += per[s].checkpoints_skipped;
    total.wal_records_replayed += per[s].wal_records_replayed;
    total.torn_bytes_truncated += per[s].torn_bytes_truncated;
    total.edges_replayed += per[s].edges_replayed;
  }
  return total;
}

void ShardedGraph::DrainerLoop(uint32_t s) {
  Shard& shard = *shards_[s];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(shard.mu);
      shard.cv_work.wait(lk, [&shard, this] {
        return shard.stop ||
               (!shard.queue.empty() &&
                !paused_.load(std::memory_order_acquire));
      });
      if (shard.queue.empty()) {
        if (shard.stop) {
          return;
        }
        continue;
      }
      task = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.applying = true;
    }
    shard.cv_space.notify_one();

    size_t applied = 0;
    if (!task.edges.empty()) {
      // WAL-before-apply: the record is in the log (though maybe not yet
      // fsynced) before the engine mutates, so recovered state can never
      // contain an unlogged batch.
      uint64_t lsn = 0;
      if (shard.wal != nullptr) {
        lsn = shard.wal->Append(task.kind == UpdateKind::kInsert
                                    ? WalRecordKind::kInsert
                                    : WalRecordKind::kDelete,
                                task.edges);
      }
      applied = task.kind == UpdateKind::kInsert
                    ? shard.engine->InsertBatch(task.edges)
                    : shard.engine->DeleteBatch(task.edges);
      // Pin the new batch boundary BEFORE reporting the batch applied or
      // idle, so Flush()/SubmitAndWait() returning implies reads see it.
      RefreshView(s);
      // Maintained queries ride the same ordering: hook before Done, so a
      // completed submit implies maintenance for this batch already ran.
      if (batch_hook_) {
        batch_hook_(s, task.kind, task.edges, ReadView(s));
      }
      // Acknowledgement (Done below) waits for durability per the fsync
      // policy. Reads may see the batch before it is durable — crash
      // semantics only promise the ACKNOWLEDGED prefix back.
      if (shard.wal != nullptr) {
        shard.wal->WaitDurable(lsn);
      }
    }
    if (task.done != nullptr) {
      task.done->Done(applied);
    }
    // Auto-checkpoint while still marked applying (Flush()'s quiesce
    // excludes admin ops until it finishes). I/O failure leaves the old
    // checkpoint + longer WAL — still consistent — and retries next batch.
    if (shard.wal != nullptr && options_.durability.checkpoint_wal_bytes != 0 &&
        shard.wal->bytes_since_rotate() >=
            options_.durability.checkpoint_wal_bytes) {
      try {
        CheckpointShard(s);
      } catch (const std::exception&) {
      }
    }
    {
      std::lock_guard<std::mutex> lk(shard.mu);
      shard.applying = false;
    }
    shard.cv_idle.notify_all();
  }
}

void ShardedGraph::RefreshView(uint32_t s) {
  Shard& shard = *shards_[s];
  std::shared_ptr<const GraphSnapshot> fresh = shard.engine->Snapshot();
  std::shared_ptr<const GraphSnapshot> old;
  {
    std::lock_guard<std::mutex> lk(shard.view_mu);
    old = std::move(shard.view);
    shard.view = std::move(fresh);
  }
  // `old` releases outside the slot lock: dropping the last reference runs
  // the snapshot-release path (chain pruning under the engine's gate).
}

std::shared_ptr<const GraphSnapshot> ShardedGraph::ReadView(
    uint32_t s) const {
  const Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lk(shard.view_mu);
  return shard.view;
}

EdgeCount ShardedGraph::num_edges() const {
  EdgeCount total = 0;
  for (const auto& shard : shards_) {
    total += shard->engine->num_edges();
  }
  return total;
}

uint64_t ShardedGraph::oob_rejected() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->engine->oob_rejected();
  }
  return total;
}

void ShardedGraph::AggregateStats(CoreStats* out) const {
  out->Clear();
  for (const auto& shard : shards_) {
    const CoreStats& s = shard->engine->stats();
#define LSG_CORE_STATS_SUM(name) \
  out->name.fetch_add(s.name.load(), std::memory_order_relaxed);
    LSG_CORE_STATS(LSG_CORE_STATS_SUM)
#undef LSG_CORE_STATS_SUM
  }
}

bool ShardedGraph::CheckInvariants() const {
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const LSGraph& g = *shards_[s]->engine;
    if (!g.CheckInvariants()) {
      return false;
    }
    // Partition invariant: a shard stores adjacency only for vertices the
    // map assigns to it.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) != 0 && shard_map_->ShardOf(v) != s) {
        return false;
      }
    }
  }
  return true;
}

void ShardedGraph::PauseIngestForTest(bool paused) {
  paused_.store(paused, std::memory_order_release);
  if (!paused) {
    for (auto& shard : shards_) {
      shard->cv_work.notify_all();
    }
  }
}

size_t ShardedGraph::PendingBatchesForTest(uint32_t s) const {
  std::lock_guard<std::mutex> lk(shards_[s]->mu);
  return shards_[s]->queue.size();
}

}  // namespace lsg
