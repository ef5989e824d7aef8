// Durability tier tests (DESIGN.md §14): WAL record round-trips, the
// torn-tail truncation contract at EVERY byte offset of a multi-record log,
// corruption detection, checkpoint publish/fallback, full-shard recovery,
// ShardedGraph recover/stop semantics, and lsg_serve's graceful SIGTERM
// path (fork/exec of the real binary, $LSG_SERVE_BIN).
//
// The randomized, process-killing counterpart lives in tools/crash_fuzz
// (ctest -L crash); these tests pin the deterministic corners.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/durability/checkpoint.h"
#include "src/durability/wal.h"
#include "src/gen/lsgbin.h"
#include "src/service/sharded_graph.h"
#include "src/testing/crash.h"
#include "src/util/graph_types.h"

namespace lsg {
namespace {

// A fresh directory per call, removed (recursively, one level of
// subdirectories — the shard-<s> layout) on fixture teardown.
class DurabilityTest : public ::testing::Test {
 protected:
  std::string TempDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "durability_test_" + name + "_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(dirs_.size());
    RemoveTree(dir);
    EnsureDirectory(dir);
    dirs_.push_back(dir);
    return dir;
  }

  void TearDown() override {
    for (const std::string& d : dirs_) {
      RemoveTree(d);
    }
  }

  static void RemoveTree(const std::string& dir) {
    std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }

  static std::vector<uint8_t> ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& path,
                        const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  static size_t FileSize(const std::string& path) {
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return static_cast<size_t>(st.st_size);
  }

  static DurabilityOptions PerCommit() {
    DurabilityOptions d;
    d.fsync = FsyncPolicy::kPerCommit;
    return d;
  }

 private:
  std::vector<std::string> dirs_;
};

TEST_F(DurabilityTest, WalAppendReplayRoundTripsAllKinds) {
  const std::string dir = TempDir("roundtrip");
  const std::vector<Edge> a = {{1, 2}, {3, 4}};
  const std::vector<Edge> b = {{5, 6}};
  {
    WalWriter w(dir, 1, PerCommit());
    EXPECT_EQ(w.Append(WalRecordKind::kInsert, a), 1u);
    EXPECT_EQ(w.Append(WalRecordKind::kAddVertices, {}, 7), 2u);
    EXPECT_EQ(w.Append(WalRecordKind::kDelete, b), 3u);
    EXPECT_EQ(w.last_appended(), 3u);
    EXPECT_EQ(w.durable_lsn(), 3u);  // per-commit: durable on return
  }
  WalReplayStats stats;
  std::vector<WalRecord> recs = ReplayWal(dir, 0, &stats);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.torn_bytes_truncated, 0u);
  EXPECT_EQ(stats.last_lsn, 3u);
  EXPECT_EQ(recs[0].kind, WalRecordKind::kInsert);
  EXPECT_EQ(recs[0].edges, a);
  EXPECT_EQ(recs[1].kind, WalRecordKind::kAddVertices);
  EXPECT_EQ(recs[1].count, 7u);
  EXPECT_TRUE(recs[1].edges.empty());
  EXPECT_EQ(recs[2].kind, WalRecordKind::kDelete);
  EXPECT_EQ(recs[2].edges, b);
  // after_lsn filters a prefix out.
  EXPECT_EQ(ReplayWal(dir, 2).size(), 1u);
  EXPECT_EQ(ReplayWal(dir, 3).size(), 0u);
}

// The tentpole torn-tail contract, exhaustively: truncate a 3-record log at
// EVERY byte length and demand (a) replay returns exactly the records whose
// bytes fully survived, (b) the file is truncated back to that valid
// prefix, (c) a second replay of the now-clean log sees no tear.
TEST_F(DurabilityTest, EveryByteTruncationRecoversMaximalPrefix) {
  const std::string gold_dir = TempDir("torn_gold");
  {
    WalWriter w(gold_dir, 1, PerCommit());
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{1, 2}, {2, 3}});
    w.Append(WalRecordKind::kAddVertices, {}, 5);
    w.Append(WalRecordKind::kDelete, std::vector<Edge>{{1, 2}});
  }
  const std::string gold_path = gold_dir + "/wal-1.log";
  const std::vector<uint8_t> gold = ReadFile(gold_path);

  // Record boundaries: header 16, then 8+16+16, 8+16, 8+16+8 bytes.
  constexpr size_t kHeader = 16;
  const size_t end1 = kHeader + 8 + 16 + 2 * sizeof(Edge);
  const size_t end2 = end1 + 8 + 16;
  const size_t end3 = end2 + 8 + 16 + sizeof(Edge);
  ASSERT_EQ(gold.size(), end3);

  const std::string dir = TempDir("torn");
  const std::string path = dir + "/wal-1.log";
  for (size_t cut = 0; cut <= gold.size(); ++cut) {
    WriteFile(path, std::vector<uint8_t>(gold.begin(), gold.begin() + cut));
    WalReplayStats stats;
    std::vector<WalRecord> recs = ReplayWal(dir, 0, &stats);

    const size_t want_records = cut >= end3 ? 3 : cut >= end2 ? 2
                                : cut >= end1 ? 1 : 0;
    // The valid prefix a torn tail truncates back to. A cut inside the
    // segment header drops the whole stub (prefix 0).
    const size_t want_size = cut >= end3 ? end3 : cut >= end2 ? end2
                             : cut >= end1 ? end1 : cut >= kHeader ? kHeader
                             : 0;
    ASSERT_EQ(recs.size(), want_records) << "cut=" << cut;
    EXPECT_EQ(stats.torn_bytes_truncated, cut - want_size) << "cut=" << cut;
    EXPECT_EQ(stats.last_lsn, want_records) << "cut=" << cut;
    ASSERT_EQ(FileSize(path), want_size) << "cut=" << cut;

    // Idempotent: the tear is gone after the first replay.
    WalReplayStats again;
    EXPECT_EQ(ReplayWal(dir, 0, &again).size(), want_records);
    EXPECT_EQ(again.torn_bytes_truncated, 0u) << "cut=" << cut;
  }
}

TEST_F(DurabilityTest, CorruptionOutsideFinalSegmentThrows) {
  const std::string dir = TempDir("corrupt");
  {
    WalWriter w(dir, 1, PerCommit());
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{1, 2}});
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{3, 4}});
    w.Rotate(3);
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{5, 6}});
  }
  // A flipped payload byte in the FIRST (non-final) segment is corruption,
  // not a tear: records acknowledged there must not silently vanish.
  const std::string first = dir + "/wal-1.log";
  std::vector<uint8_t> bytes = ReadFile(first);
  bytes[16 + 8 + 8] ^= 0xff;  // first record's payload
  WriteFile(first, bytes);
  EXPECT_THROW(ReplayWal(dir, 0), std::runtime_error);
  // Restore; bad segment magic fails everywhere, even in the final segment.
  bytes[16 + 8 + 8] ^= 0xff;
  WriteFile(first, bytes);
  EXPECT_EQ(ReplayWal(dir, 0).size(), 3u);
  std::vector<uint8_t> last = ReadFile(dir + "/wal-3.log");
  last[0] ^= 0xff;
  WriteFile(dir + "/wal-3.log", last);
  EXPECT_THROW(ReplayWal(dir, 0), std::runtime_error);
}

TEST_F(DurabilityTest, SameSeedCrcDoesNotMaskFlippedBitInFinalRecord) {
  const std::string dir = TempDir("crc");
  {
    WalWriter w(dir, 1, PerCommit());
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{1, 2}, {3, 4}});
  }
  const std::string path = dir + "/wal-1.log";
  const std::vector<uint8_t> gold = ReadFile(path);
  // Any single flipped payload bit makes the final record a torn tail
  // (dropped whole), never a misdecoded batch.
  for (size_t byte = 16 + 8; byte < gold.size(); byte += 5) {
    std::vector<uint8_t> bytes = gold;
    bytes[byte] ^= 0x01;
    WriteFile(path, bytes);
    WalReplayStats stats;
    EXPECT_EQ(ReplayWal(dir, 0, &stats).size(), 0u) << "byte=" << byte;
    WriteFile(path, gold);  // the replay truncated; restore for the next
  }
}

TEST_F(DurabilityTest, CheckpointPublishLoadAndFallback) {
  const std::string dir = TempDir("ckpt");
  const std::vector<Edge> older = {{0, 1}, {1, 2}};
  const std::vector<Edge> newer = {{0, 1}, {1, 2}, {2, 3}};
  WriteCheckpoint(dir, 4, older, 10);
  WriteCheckpoint(dir, 4, newer, 20);
  EXPECT_EQ(NewestCheckpointWatermark(dir), 20u);

  CheckpointState st = LoadNewestCheckpoint(dir);
  ASSERT_TRUE(st.found);
  EXPECT_EQ(st.watermark, 20u);
  EXPECT_EQ(st.edges, newer);
  EXPECT_TRUE(st.skipped.empty());

  // Damage the newest checkpoint's payload: recovery must fall back to the
  // older one and report the skip.
  std::vector<uint8_t> bytes = ReadFile(st.path);
  bytes[bytes.size() / 2] ^= 0xff;
  WriteFile(st.path, bytes);
  CheckpointState fb = LoadNewestCheckpoint(dir);
  ASSERT_TRUE(fb.found);
  EXPECT_EQ(fb.watermark, 10u);
  EXPECT_EQ(fb.edges, older);
  ASSERT_EQ(fb.skipped.size(), 1u);
  EXPECT_EQ(fb.skipped[0], st.path);
  // Filename-only watermark still sees the damaged file — by design: it
  // places the writer's next LSN, which must clear every LSN ever issued.
  EXPECT_EQ(NewestCheckpointWatermark(dir), 20u);

  // A stray .tmp (crash before the rename commit point) is ignored.
  WriteFile(dir + "/checkpoint-99.lsgbin.tmp", {1, 2, 3});
  EXPECT_EQ(LoadNewestCheckpoint(dir).watermark, 10u);
  EXPECT_EQ(NewestCheckpointWatermark(dir), 20u);
}

TEST_F(DurabilityTest, CheckpointFooterMismatchedWatermarkIsSkipped) {
  const std::string dir = TempDir("ckpt_wm");
  // A checkpoint whose FOOTER validates but was renamed to the wrong LSN
  // must not be trusted (its tail-replay cut would be wrong).
  const std::vector<Edge> edges = {{0, 1}};
  const uint64_t wm = 5;
  WriteLsgbin(dir + "/checkpoint-7.lsgbin", 2, edges, 0, &wm);
  CheckpointState st = LoadNewestCheckpoint(dir);
  EXPECT_FALSE(st.found);
  ASSERT_EQ(st.skipped.size(), 1u);
}

TEST_F(DurabilityTest, RecoverShardStateCombinesCheckpointAndTail) {
  const std::string dir = TempDir("shard");
  {
    WalWriter w(dir, 1, PerCommit());
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{0, 1}});   // lsn 1
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{1, 2}});   // lsn 2
    WriteCheckpoint(dir, 3, std::vector<Edge>{{0, 1}, {1, 2}}, 2);
    w.Rotate(3);
    GarbageCollect(dir, 2, w.segment_path());
    w.Append(WalRecordKind::kInsert, std::vector<Edge>{{2, 0}});   // lsn 3
  }
  ShardRecovery rec = RecoverShardState(dir);
  ASSERT_TRUE(rec.checkpoint.found);
  EXPECT_EQ(rec.checkpoint.watermark, 2u);
  EXPECT_EQ(rec.checkpoint.num_vertices, 3u);
  ASSERT_EQ(rec.tail.size(), 1u);  // only lsn 3 — the checkpoint covers 1-2
  EXPECT_EQ(rec.tail[0].lsn, 3u);
  EXPECT_EQ(rec.next_lsn, 4u);

  // The GC left exactly one segment and one checkpoint.
  EXPECT_EQ(ReplayWal(dir, 0).size(), 1u);
  EXPECT_EQ(NewestCheckpointWatermark(dir), 2u);
}

TEST_F(DurabilityTest, EmptyDirectoryRecoversToNothing) {
  const std::string dir = TempDir("empty");
  ShardRecovery rec = RecoverShardState(dir);
  EXPECT_FALSE(rec.checkpoint.found);
  EXPECT_TRUE(rec.tail.empty());
  EXPECT_EQ(rec.next_lsn, 1u);
  // And a directory that does not exist at all.
  ShardRecovery rec2 = RecoverShardState(dir + "/nonexistent");
  EXPECT_FALSE(rec2.checkpoint.found);
  EXPECT_EQ(rec2.next_lsn, 1u);
}

TEST_F(DurabilityTest, DurabilityOptionsValidateRejectsBadShapes) {
  DurabilityOptions d;  // disabled: everything inert
  d.interval_ms = 0;
  EXPECT_EQ(d.Validate(), "");
  d.dir = "/tmp/x";
  EXPECT_NE(d.Validate(), "");
  d.interval_ms = 50;
  EXPECT_EQ(d.Validate(), "");
  d.max_unsynced_bytes = 1024;
  EXPECT_NE(d.Validate(), "");
  d.max_unsynced_bytes = size_t{64} << 10;
  EXPECT_EQ(d.Validate(), "");
  d.checkpoint_wal_bytes = 100;
  EXPECT_NE(d.Validate(), "");
  d.checkpoint_wal_bytes = 0;  // manual checkpoints only: allowed
  EXPECT_EQ(d.Validate(), "");

  ServiceOptions sopts;
  sopts.durability = d;
  sopts.durability.interval_ms = 0;
  EXPECT_NE(sopts.Validate(), "");  // the service-level gate chains through
}

ServiceOptions DurableServiceOptions(const std::string& dir,
                                     uint32_t shards = 2) {
  ServiceOptions sopts;
  sopts.num_shards = shards;
  sopts.engine_threads = shards;
  sopts.durability.dir = dir;
  sopts.durability.fsync = FsyncPolicy::kGroup;
  sopts.durability.max_unsynced_bytes = size_t{64} << 10;
  sopts.durability.checkpoint_wal_bytes = 0;  // manual only: deterministic
  return sopts;
}

TEST_F(DurabilityTest, ShardedGraphSurvivesRestartViaWalOnly) {
  const std::string dir = TempDir("svc_wal");
  CrashWorkload wl = MakeCrashWorkload(/*seed=*/101, /*initial_vertices=*/48,
                                       /*num_ops=*/25, /*edges_per_batch=*/16);
  {
    ShardedGraph graph(wl.initial_vertices, nullptr,
                       DurableServiceOptions(dir));
    size_t applied = RunCrashWorkload(graph, wl, [](size_t) {});
    ASSERT_EQ(applied, wl.ops.size());
  }  // clean destruction: queues drained, WAL synced — no checkpoint taken
  ShardedGraph graph(wl.initial_vertices, nullptr, DurableServiceOptions(dir));
  RecoveryInfo info = graph.Recover();
  EXPECT_EQ(info.checkpoints_loaded, 0u);
  EXPECT_GT(info.wal_records_replayed, 0u);
  EXPECT_EQ(VerifyRecovered(graph, wl, wl.ops.size()), "");
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST_F(DurabilityTest, ShardedGraphSurvivesRestartViaCheckpointPlusTail) {
  const std::string dir = TempDir("svc_ckpt");
  CrashWorkload wl = MakeCrashWorkload(/*seed=*/202, /*initial_vertices=*/48,
                                       /*num_ops=*/30, /*edges_per_batch=*/16);
  {
    ShardedGraph graph(wl.initial_vertices, nullptr,
                       DurableServiceOptions(dir));
    // Checkpoint every 9 ops; the last few land only in the WAL tail.
    size_t applied =
        RunCrashWorkload(graph, wl, [](size_t) {}, /*checkpoint_every=*/9);
    ASSERT_EQ(applied, wl.ops.size());
  }
  ShardedGraph graph(wl.initial_vertices, nullptr, DurableServiceOptions(dir));
  RecoveryInfo info = graph.Recover();
  EXPECT_EQ(info.checkpoints_loaded, graph.num_shards());
  EXPECT_EQ(info.checkpoints_skipped, 0u);
  EXPECT_EQ(VerifyRecovered(graph, wl, wl.ops.size()), "");
  EXPECT_TRUE(graph.CheckInvariants());

  // Recovered state keeps ingesting and recovering: append more ops on top.
  CrashWorkload more = MakeCrashWorkload(/*seed=*/203, graph.num_vertices(),
                                         /*num_ops=*/5, /*edges_per_batch=*/8);
  EXPECT_EQ(RunCrashWorkload(graph, more, [](size_t) {}), more.ops.size());
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST_F(DurabilityTest, RecoverOnFreshDirectoryIsANoOp) {
  const std::string dir = TempDir("svc_fresh");
  ShardedGraph graph(32, nullptr, DurableServiceOptions(dir));
  RecoveryInfo info = graph.Recover();
  EXPECT_EQ(info.checkpoints_loaded, 0u);
  EXPECT_EQ(info.wal_records_replayed, 0u);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST_F(DurabilityTest, SubmitAfterStopIsCleanlyRejected) {
  const std::string dir = TempDir("svc_stop");
  ShardedGraph graph(32, nullptr, DurableServiceOptions(dir));
  std::vector<Edge> batch = {{1, 2}, {3, 4}};
  size_t applied = 0;
  ASSERT_EQ(graph.SubmitAndWait(ShardedGraph::UpdateKind::kInsert, batch,
                                &applied),
            SubmitStatus::kOk);
  EXPECT_EQ(applied, 2u);

  EXPECT_FALSE(graph.stopped());
  graph.Stop();
  EXPECT_TRUE(graph.stopped());
  graph.Stop();  // idempotent

  EXPECT_EQ(graph.SubmitInsert({{5, 6}}), SubmitStatus::kStopped);
  EXPECT_EQ(graph.SubmitDelete({{1, 2}}), SubmitStatus::kStopped);
  applied = 999;
  EXPECT_EQ(graph.SubmitAndWait(ShardedGraph::UpdateKind::kInsert, {{5, 6}},
                                &applied),
            SubmitStatus::kStopped);
  EXPECT_EQ(applied, 0u);
  // Nothing after Stop() reached the engines; the pre-stop batch is intact.
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_TRUE(graph.CheckInvariants());

  // The rejected batches also never reached the WAL: a restart replays
  // exactly the accepted one.
  ShardedGraph fresh(32, nullptr, DurableServiceOptions(dir));
  fresh.Recover();
  EXPECT_EQ(fresh.num_edges(), 2u);
}

// Stop-then-destroy must be a deterministic drain: every batch accepted
// BEFORE Stop() survives a restart even though Stop raced the drainers.
TEST_F(DurabilityTest, StopDrainsAcceptedBatchesBeforeTeardown) {
  const std::string dir = TempDir("svc_drain");
  size_t accepted = 0;
  {
    ShardedGraph graph(64, nullptr, DurableServiceOptions(dir));
    for (VertexId i = 0; i + 1 < 64; ++i) {
      if (graph.SubmitInsert({{i, i + 1}}) != SubmitStatus::kOk) {
        break;
      }
      ++accepted;
    }
    graph.Stop();  // drain + WAL flush; no new submits
  }
  ASSERT_GT(accepted, 0u);
  ShardedGraph graph(64, nullptr, DurableServiceOptions(dir));
  graph.Recover();
  EXPECT_EQ(graph.num_edges(), accepted);
}

// lsg_serve's graceful-stop path against the real binary: SIGTERM mid-run
// must exit 0 and leave a final checkpoint past the build-time one.
TEST_F(DurabilityTest, LsgServeSigtermStopsGracefullyWithFinalCheckpoint) {
  const char* bin = std::getenv("LSG_SERVE_BIN");
  if (bin == nullptr || *bin == '\0') {
    GTEST_SKIP() << "LSG_SERVE_BIN not set (run via ctest)";
  }
  const std::string dir = TempDir("serve");
  const std::string dur = "--durability-dir=" + dir;
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Paced slow enough to still be mid-run when the signal lands.
    ::execl(bin, bin, "--shards=2", "--scale=8", "--ops=100000000",
            "--qps=800", "--read-frac=0.3", "--update-frac=0.5", "--batch=64",
            dur.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // The build-time checkpoint (watermark 0) appearing means the handler
  // install point is at most microseconds away; pad generously, then let
  // some paced update batches land before signaling.
  const std::string shard0 = dir + "/shard-0";
  for (int i = 0; i < 200; ++i) {
    struct stat st;
    if (::stat((shard0 + "/checkpoint-0.lsgbin").c_str(), &st) == 0) {
      break;
    }
    ::usleep(50 * 1000);
  }
  ::usleep(1500 * 1000);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "lsg_serve died on the signal";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The final checkpoint covers the updates acknowledged before the stop.
  EXPECT_GT(NewestCheckpointWatermark(shard0), 0u);
  CheckpointState st = LoadNewestCheckpoint(shard0);
  EXPECT_TRUE(st.found);
  EXPECT_EQ(st.watermark, NewestCheckpointWatermark(shard0));
}

}  // namespace
}  // namespace lsg
