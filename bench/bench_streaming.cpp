// Table 4 / §6.5 "Scenarios with Real-world Streaming Graphs": replay
// realistic temporal streams (bursty arrival, repeats) on all four systems.
// Following the paper, 90% of each stream builds the base graph and the
// final 10% is applied as streamed additions; the table reports streaming
// throughput and LSGraph's speedup.
//
// Expected shape: LSGraph ahead of Terrace by ~1.6-3x and ahead of
// Aspen/PaC-tree by smaller margins (small batches blunt LSGraph's edge).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/analytics/bfs.h"
#include "src/analytics/cc.h"
#include "src/analytics/incremental/incremental_bfs.h"
#include "src/analytics/incremental/incremental_cc.h"
#include "src/analytics/pagerank.h"
#include "src/gen/temporal.h"

namespace lsg {
namespace bench {
namespace {

// Replays the stream in arrival-order chunks; returns edges/second over the
// whole streamed suffix.
template <typename G>
double ReplayStream(G& g, const std::vector<Edge>& stream) {
  constexpr size_t kChunk = 1000;
  Timer timer;
  for (size_t off = 0; off < stream.size(); off += kChunk) {
    size_t len = std::min(kChunk, stream.size() - off);
    g.InsertBatch(std::span<const Edge>(stream.data() + off, len));
  }
  return Throughput(stream.size(), timer.Seconds());
}

void Run(const TemporalSpec& spec, ThreadPool& pool,
         BenchReporter& reporter) {
  TemporalSplit split = SplitTemporalStream(GenerateTemporalStream(spec));
  double ls;
  double terrace;
  double aspen;
  double pactree;
  {
    LSGraph g(spec.num_vertices, Options{}, &pool);
    g.BuildFromEdges(split.base);
    ls = ReplayStream(g, split.stream);
  }
  {
    TerraceGraph g(spec.num_vertices, TerraceOptions{}, &pool);
    g.BuildFromEdges(split.base);
    terrace = ReplayStream(g, split.stream);
  }
  {
    AspenGraph g(spec.num_vertices, &pool);
    g.BuildFromEdges(split.base);
    aspen = ReplayStream(g, split.stream);
  }
  {
    PacTreeGraph g(spec.num_vertices, &pool);
    g.BuildFromEdges(split.base);
    pactree = ReplayStream(g, split.stream);
  }
  std::printf(
      "%-3s events=%-8llu LSGraph %10.3e e/s | speedup vs Terrace %.2fx, "
      "Aspen %.2fx, PaC %.2fx\n",
      spec.name.c_str(), static_cast<unsigned long long>(spec.num_events), ls,
      terrace > 0 ? ls / terrace : 0.0, aspen > 0 ? ls / aspen : 0.0,
      pactree > 0 ? ls / pactree : 0.0);
  auto add = [&](const char* engine, double tput) {
    reporter.Add({.dataset = spec.name,
                  .engine = engine,
                  .metric = "stream_throughput",
                  .value = tput,
                  .unit = "edges/s"});
  };
  add("LSGraph", ls);
  add("Terrace", terrace);
  add("Aspen", aspen);
  add("PaC-tree", pactree);
}

// ---- Reads-during-ingest study (§MVCC, DESIGN.md §12). ----
//
// Pins a Snapshot() of the base graph, then streams >= 1M additional edges
// from a writer thread while BFS and PageRank run against the pin. The
// racing results must be identical to a quiesced re-run on the same pin —
// that equality is the whole point of snapshot isolation, so a mismatch
// aborts the binary (and fails the perfsmoke test). Snapshot-acquire
// latency is sampled under writer contention and reported as p50/p99.

struct IngestStudySpec {
  int scale;              // base graph: rMat at this scale, symmetrized
  uint64_t stream_edges;  // edges landed while the pin is held
  uint64_t batch;
};

IngestStudySpec IngestSpec() {
  switch (BenchScale()) {
    case Scale::kTiny:
      return {15, 1'000'000, 20'000};
    case Scale::kSmall:
      return {17, 2'000'000, 50'000};
    case Scale::kFull:
      return {20, 16'000'000, 100'000};
  }
  return {};
}

void CheckPinned(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: pinned %s diverged from quiesced run on the same "
                 "snapshot version\n",
                 what);
    std::abort();
  }
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void RunReadsDuringIngest(ThreadPool& pool, BenchReporter& reporter) {
  IngestStudySpec spec = IngestSpec();
  DatasetSpec base_spec{"RDI", spec.scale, 8.0, 42};
  LSGraph g(NumVerticesFor(base_spec), Options{}, &pool);
  g.BuildFromEdges(BuildDatasetEdges(base_spec));

  // Quiesced reference answers on the pinned version, before ingest starts.
  auto snap = g.Snapshot();
  uint64_t pinned_edges = snap->num_edges();
  BfsResult quiesced_bfs = Bfs(*snap, 0, pool);
  std::vector<double> quiesced_pr = PageRank(*snap, pool, {.iterations = 5});

  // Writer: stream the update batches. Readers below race against the pin
  // on the main thread while these land.
  std::vector<Edge> stream;
  stream.reserve(spec.stream_edges);
  for (uint64_t trial = 0; stream.size() < spec.stream_edges; ++trial) {
    std::vector<Edge> b = BuildUpdateBatch(base_spec, spec.batch, trial);
    stream.insert(stream.end(), b.begin(), b.end());
  }
  Timer ingest_timer;
  std::thread writer([&g, &stream, &spec] {
    for (size_t off = 0; off < stream.size(); off += spec.batch) {
      size_t len = std::min<size_t>(spec.batch, stream.size() - off);
      g.InsertBatch(std::span<const Edge>(stream.data() + off, len));
    }
  });

  // Racing analytics on the pin while the stream lands.
  Timer timer;
  BfsResult racing_bfs = Bfs(*snap, 0, pool);
  double bfs_seconds = timer.Seconds();
  timer.Reset();
  std::vector<double> racing_pr = PageRank(*snap, pool, {.iterations = 5});
  double pr_seconds = timer.Seconds();

  // Snapshot-acquire latency under writer contention: each acquire briefly
  // takes the writer gate, so these samples include time spent waiting for
  // in-flight mutation units.
  constexpr size_t kAcquireSamples = 256;
  std::vector<double> acquire;
  acquire.reserve(kAcquireSamples);
  for (size_t i = 0; i < kAcquireSamples; ++i) {
    Timer t;
    auto probe = g.Snapshot();
    acquire.push_back(t.Seconds());
    probe.reset();
    std::this_thread::yield();
  }
  writer.join();
  double ingest_seconds = ingest_timer.Seconds();

  // The pin must still read the pre-ingest version: same edge count, and
  // byte-identical analytics results whether they raced the writer or ran
  // after it quiesced.
  CheckPinned(snap->num_edges() == pinned_edges, "num_edges");
  CheckPinned(racing_bfs.level == quiesced_bfs.level, "BFS levels");
  CheckPinned(racing_bfs.reached == quiesced_bfs.reached, "BFS reach count");
  CheckPinned(racing_pr == quiesced_pr, "PageRank vector");
  BfsResult after_bfs = Bfs(*snap, 0, pool);
  CheckPinned(after_bfs.level == quiesced_bfs.level, "post-quiesce BFS");
  CheckPinned(PageRank(*snap, pool, {.iterations = 5}) == quiesced_pr,
              "post-quiesce PageRank");

  std::sort(acquire.begin(), acquire.end());
  double p50 = PercentileSorted(acquire, 0.50);
  double p99 = PercentileSorted(acquire, 0.99);
  double ingest_tput = Throughput(stream.size(), ingest_seconds);
  std::printf(
      "RDI streamed=%zu edges during pin | ingest %10.3e e/s | pinned BFS "
      "%.4fs PR %.4fs | snapshot acquire p50 %.2e s p99 %.2e s\n",
      stream.size(), ingest_tput, bfs_seconds, pr_seconds, p50, p99);

  auto add = [&](const char* metric, double value, const char* unit) {
    reporter.Add({.dataset = "RDI",
                  .engine = "LSGraph",
                  .metric = metric,
                  .value = value,
                  .unit = unit,
                  .batch_size = static_cast<int64_t>(spec.batch)});
  };
  add("ingest_throughput_pinned", ingest_tput, "edges/s");
  add("pinned_bfs_time", bfs_seconds, "s");
  add("pinned_pagerank_time", pr_seconds, "s");
  add("snapshot_acquire_p50", p50, "s");
  add("snapshot_acquire_p99", p99, "s");
  reporter.AddCoreStats("RDI", "LSGraph", g.stats());
}

// ---- Staleness-vs-cost study (DESIGN.md §15). ----
//
// The maintained-query subsystem's pitch: paying a small delta-maintenance
// cost per batch keeps analytics results perpetually fresh, where the
// alternative pays a full recompute every time freshness is needed. This
// study streams IngestSpec-sized batches (plus a ~1%-of-batch deletion
// sample) into a symmetrized base graph and, after every batch, times
// maintained BFS + CC against full kernel recomputes — asserting exact
// equality each round (a mismatch aborts the binary, failing the perfsmoke
// test). Reported rows: per-batch maintain vs recompute cost, speedup,
// fallback counts, and the average dirty fraction.

void CheckMaintained(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: maintained %s diverged from the full kernel after a "
                 "batch\n",
                 what);
    std::abort();
  }
}

void RunIncrementalMaintenance(ThreadPool& pool, BenchReporter& reporter) {
  IngestStudySpec spec = IngestSpec();
  DatasetSpec base_spec{"INC", spec.scale, 8.0, 1234};
  VertexId n = NumVerticesFor(base_spec);
  LSGraph g(n, Options{}, &pool);
  g.BuildFromEdges(BuildDatasetEdges(base_spec));

  IncrementalBfs inc_bfs(/*source=*/0, pool);
  IncrementalCC inc_cc(pool);
  inc_bfs.Init(g);
  inc_cc.Init(g);

  double bfs_inc_s = 0.0, bfs_full_s = 0.0;
  double cc_inc_s = 0.0, cc_full_s = 0.0;
  double dirty_frac_sum = 0.0;
  size_t rounds = 0;
  std::vector<Edge> prev_pairs;  // deletion pool: last round's insertions
  for (uint64_t streamed = 0; streamed < spec.stream_edges;
       streamed += spec.batch, ++rounds) {
    std::vector<Edge> raw = BuildUpdateBatch(base_spec, spec.batch, rounds);
    std::vector<Edge> ins;
    std::vector<Edge> pairs;
    ins.reserve(raw.size() * 2);
    for (const Edge& e : raw) {
      if (e.src == e.dst) {
        continue;
      }
      pairs.push_back(e);
      ins.push_back(e);
      ins.push_back(Edge{e.dst, e.src});
    }
    // Every 4th batch carries ~1%-of-batch deletions, sampled from the
    // previous round's insertions (so they mostly name edges the graph really
    // holds). Deletions are rarer than inserts in real streams. Most land
    // on non-tree edges of CC's spanning forest and cost a word load per
    // endpoint; a deleted tree edge cuts off only the subtree below it,
    // which re-attaches through a replacement edge. Only a cut past the
    // dirty cap falls back to the full kernel; the fallback_rounds row
    // counts those.
    std::vector<Edge> del;
    if (rounds % 4 == 3) {
      for (size_t i = 0; i < prev_pairs.size(); i += 128) {
        del.push_back(prev_pairs[i]);
        del.push_back(Edge{prev_pairs[i].dst, prev_pairs[i].src});
      }
    }
    prev_pairs = std::move(pairs);

    g.DeleteBatch(del);
    g.InsertBatch(ins);

    Timer t;
    inc_bfs.Apply(g, ins, del);
    bfs_inc_s += t.Seconds();
    t.Reset();
    inc_cc.Apply(g, ins, del);
    cc_inc_s += t.Seconds();

    t.Reset();
    BfsResult full_bfs = Bfs(g, 0, pool);
    bfs_full_s += t.Seconds();
    t.Reset();
    std::vector<VertexId> full_cc = ConnectedComponents(g, pool);
    cc_full_s += t.Seconds();

    // The maintained-query contract, checked EVERY round: results equal the
    // full kernels' exactly, fallback rounds included.
    CheckMaintained(inc_bfs.Levels() == full_bfs.level, "BFS levels");
    CheckMaintained(inc_cc.Labels() == full_cc, "CC labels");
    dirty_frac_sum += static_cast<double>(inc_bfs.stats().last_dirty) /
                      static_cast<double>(n);
  }

  double r = static_cast<double>(rounds);
  double dirty_pct = 100.0 * dirty_frac_sum / r;
  std::printf(
      "INC %zu rounds of %llu-edge batches | per batch: maintained BFS %.2e s "
      "vs full %.2e s (%.1fx), maintained CC %.2e s vs full %.2e s (%.1fx) | "
      "avg dirty %.3f%% | fallbacks bfs=%llu cc=%llu\n",
      rounds, static_cast<unsigned long long>(spec.batch), bfs_inc_s / r,
      bfs_full_s / r, bfs_inc_s > 0 ? bfs_full_s / bfs_inc_s : 0.0,
      cc_inc_s / r, cc_full_s / r, cc_inc_s > 0 ? cc_full_s / cc_inc_s : 0.0,
      dirty_pct,
      static_cast<unsigned long long>(inc_bfs.stats().fallbacks),
      static_cast<unsigned long long>(inc_cc.stats().fallbacks));

  auto add = [&](const char* metric, double value, const char* unit) {
    reporter.Add({.dataset = "INC",
                  .engine = "LSGraph",
                  .metric = metric,
                  .value = value,
                  .unit = unit,
                  .batch_size = static_cast<int64_t>(spec.batch)});
  };
  add("maintain_bfs_per_batch", bfs_inc_s / r, "s");
  add("recompute_bfs_per_batch", bfs_full_s / r, "s");
  add("maintain_cc_per_batch", cc_inc_s / r, "s");
  add("recompute_cc_per_batch", cc_full_s / r, "s");
  add("bfs_maintain_speedup", bfs_inc_s > 0 ? bfs_full_s / bfs_inc_s : 0.0,
      "x");
  add("cc_maintain_speedup", cc_inc_s > 0 ? cc_full_s / cc_inc_s : 0.0, "x");
  add("bfs_fallback_rounds", static_cast<double>(inc_bfs.stats().fallbacks),
      "count");
  add("cc_fallback_rounds", static_cast<double>(inc_cc.stats().fallbacks),
      "count");
  add("avg_dirty_fraction", dirty_pct, "%");
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  using namespace lsg;
  using namespace lsg::bench;
  PrintHeader("Table 4 / §6.5: real-world-style temporal streams (10% streamed)");
  BenchReporter reporter("streaming");
  ThreadPool pool;
  for (const TemporalSpec& spec : TemporalDatasets()) {
    Run(spec, pool, reporter);
  }
  PrintHeader("MVCC: analytics on a pinned Snapshot() during ingest");
  RunReadsDuringIngest(pool, reporter);
  PrintHeader(
      "Incremental maintenance: staleness-vs-cost, maintained BFS/CC vs "
      "full recompute per batch");
  RunIncrementalMaintenance(pool, reporter);
  return reporter.Write() ? 0 : 1;
}
