// Table 3: memory usage of the four systems per graph, the ratio of
// Terrace's footprint to LSGraph's (T/L), and LSGraph's index overhead (I/L:
// RIA index arrays + LIA models/metadata as a share of total footprint).
//
// Expected shape: Terrace ~2-3x LSGraph (PMA density 0.125-0.25 vs α=1.2);
// Aspen/PaC-tree below LSGraph (compressed chunks); I/L a few percent.
//
// Second table: the compressed-leaf study. One dense rMat per scale is
// built twice — raw leaves vs compress_leaves — and we report resident
// adjacency tail bytes, bytes/tail-edge, the compression ratio, and BFS /
// PageRank wall time in both modes (the decode-while-scan overhead). The
// bytes basis is adjacency tails only: inline VertexBlock ids are identical
// in both modes and would dilute the ratio with a constant.
#include <cstdio>

#include "bench/common.h"
#include "src/analytics/bfs.h"
#include "src/analytics/pagerank.h"

namespace lsg {
namespace bench {
namespace {

double Gib(size_t bytes) { return static_cast<double>(bytes) / (1 << 30); }

void RunDataset(const DatasetSpec& spec, ThreadPool& pool,
                BenchReporter& reporter) {
  size_t ls_bytes;
  size_t ls_index;
  EdgeCount edges;
  {
    auto g = MakeLsGraph(spec, &pool);
    ls_bytes = g->memory_footprint();
    ls_index = g->index_bytes();
    edges = g->num_edges();
  }
  size_t terrace_bytes;
  {
    // Terrace reserves PMA space at low density, as the paper notes.
    auto g = MakeTerrace(spec, &pool);
    terrace_bytes = g->memory_footprint();
  }
  size_t aspen_bytes;
  {
    auto g = MakeAspen(spec, &pool);
    aspen_bytes = g->memory_footprint();
  }
  size_t pactree_bytes;
  {
    auto g = MakePacTree(spec, &pool);
    pactree_bytes = g->memory_footprint();
  }
  std::printf(
      "%-4s |E|=%-10llu LSGraph %8.4f GB  Terrace %8.4f GB  Aspen %8.4f GB  "
      "PaC %8.4f GB  T/L %5.2f  I/L %5.2f%%\n",
      spec.name.c_str(), static_cast<unsigned long long>(edges), Gib(ls_bytes),
      Gib(terrace_bytes), Gib(aspen_bytes), Gib(pactree_bytes),
      static_cast<double>(terrace_bytes) / ls_bytes,
      100.0 * ls_index / ls_bytes);
  auto add = [&](const char* engine, size_t bytes) {
    reporter.Add({.dataset = spec.name,
                  .engine = engine,
                  .metric = "memory_footprint",
                  .value = static_cast<double>(bytes),
                  .unit = "bytes"});
  };
  add("LSGraph", ls_bytes);
  add("Terrace", terrace_bytes);
  add("Aspen", aspen_bytes);
  add("PaC-tree", pactree_bytes);
  reporter.Add({.dataset = spec.name,
                .engine = "LSGraph",
                .metric = "index_bytes",
                .value = static_cast<double>(ls_index),
                .unit = "bytes"});
  reporter.Add({.dataset = spec.name,
                .engine = "LSGraph",
                .metric = "num_edges",
                .value = static_cast<double>(edges),
                .unit = "count"});
}

// Dense rMat proxy for the compressed-leaf study. Degree is high on
// purpose: compression pays off where adjacency tails are substantial
// (per-tail object overhead is fixed, and smaller deltas shrink varints).
DatasetSpec CompressedSpec() {
  switch (BenchScale()) {
    case Scale::kTiny:
      return {"RMC", 12, 64.0, 7};
    case Scale::kSmall:
      return {"RMC", 16, 64.0, 7};
    case Scale::kFull:
      return {"RMC", 20, 96.0, 7};
  }
  return {};
}

// Returns false when the compressed engine's bytes_resident or
// neighbors_decoded counter reads 0: a CRIA engine that has just run BFS and
// PageRank holds resident bytes and has decoded neighbors, so a 0 means the
// rows no longer come from the engine's counters.
bool RunCompressedStudy(ThreadPool& pool, BenchReporter& reporter) {
  DatasetSpec spec = CompressedSpec();
  struct ModeResult {
    size_t adjacency_bytes = 0;
    EdgeCount tail_edges = 0;
    double bfs_seconds = 0.0;
    double pagerank_seconds = 0.0;
  };
  uint64_t bytes_resident = 0;
  uint64_t neighbors_decoded = 0;
  auto run = [&](bool compressed) {
    Options options;
    options.compress_leaves = compressed;
    auto g = MakeLsGraph(spec, &pool, options);
    ModeResult r;
    r.adjacency_bytes = g->adjacency_bytes();
    r.tail_edges = g->tail_edges();
    Timer timer;
    Bfs(*g, 0, pool);
    r.bfs_seconds = timer.Seconds();
    timer.Reset();
    PageRank(*g, pool);
    r.pagerank_seconds = timer.Seconds();
    if (compressed) {
      // The engine owns its counters: read them before it is destroyed.
      reporter.AddCoreStats(spec.name, "LSGraph-compressed", g->stats());
      bytes_resident = g->stats().bytes_resident.load();
      neighbors_decoded = g->stats().neighbors_decoded.load();
    }
    return r;
  };
  ModeResult raw = run(false);
  ModeResult comp = run(true);
  double te = static_cast<double>(raw.tail_edges);
  double ratio = comp.adjacency_bytes > 0
                     ? static_cast<double>(raw.adjacency_bytes) /
                           static_cast<double>(comp.adjacency_bytes)
                     : 0.0;
  std::printf(
      "%-4s 2^%d tail_edges=%-10llu raw %6.2f B/e  compressed %6.2f B/e  "
      "ratio %.2fx | BFS %.3fs -> %.3fs  PR %.3fs -> %.3fs\n",
      spec.name.c_str(), spec.scale,
      static_cast<unsigned long long>(raw.tail_edges),
      raw.adjacency_bytes / te, comp.adjacency_bytes / te, ratio,
      raw.bfs_seconds, comp.bfs_seconds, raw.pagerank_seconds,
      comp.pagerank_seconds);
  auto add = [&](const char* engine, const char* metric, double value,
                 const char* unit) {
    reporter.Add({.dataset = spec.name,
                  .engine = engine,
                  .metric = metric,
                  .value = value,
                  .unit = unit});
  };
  add("LSGraph", "adjacency_bytes", static_cast<double>(raw.adjacency_bytes),
      "bytes");
  add("LSGraph-compressed", "adjacency_bytes",
      static_cast<double>(comp.adjacency_bytes), "bytes");
  add("LSGraph", "adjacency_bytes_per_edge", raw.adjacency_bytes / te,
      "bytes/edge");
  add("LSGraph-compressed", "adjacency_bytes_per_edge",
      comp.adjacency_bytes / te, "bytes/edge");
  add("LSGraph-compressed", "compression_ratio", ratio, "x");
  add("LSGraph", "bfs_seconds", raw.bfs_seconds, "s");
  add("LSGraph-compressed", "bfs_seconds", comp.bfs_seconds, "s");
  add("LSGraph", "pagerank_seconds", raw.pagerank_seconds, "s");
  add("LSGraph-compressed", "pagerank_seconds", comp.pagerank_seconds, "s");
  if (bytes_resident == 0 || neighbors_decoded == 0) {
    std::fprintf(stderr,
                 "bench_memory: LSGraph-compressed counters read 0 "
                 "(bytes_resident %llu, neighbors_decoded %llu)\n",
                 static_cast<unsigned long long>(bytes_resident),
                 static_cast<unsigned long long>(neighbors_decoded));
    return false;
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  using namespace lsg;
  using namespace lsg::bench;
  PrintHeader("Table 3: memory footprint and index overhead");
  BenchReporter reporter("memory");
  ThreadPool pool;
  for (const DatasetSpec& spec : BenchDatasets()) {
    RunDataset(spec, pool, reporter);
  }
  std::printf("\ncompressed-leaf study (adjacency tails, raw vs CRIA):\n");
  const bool counters_ok = RunCompressedStudy(pool, reporter);
  return reporter.Write() && counters_ok ? 0 : 1;
}
