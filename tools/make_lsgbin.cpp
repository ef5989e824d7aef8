// Edge-list -> .lsgbin converter.
//
// Reads a SNAP-style text edge list ("src dst" per line, # comments) or
// synthesizes an rMat dataset, then writes the parallel-loadable .lsgbin
// container (lsgbin.h).
//
//   make_lsgbin --in=graph.txt --out=graph.lsgbin [--num-vertices=N]
//               [--symmetrize] [--ranges=R]
//   make_lsgbin --rmat=20,8,500 --out=rm20.lsgbin [--ranges=R]
//
// Input edges are sorted and deduplicated here; --num-vertices defaults to
// max endpoint + 1. --symmetrize mirrors every edge (the undirected
// convention the analytics kernels assume).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/gen/datasets.h"
#include "src/gen/edge_io.h"
#include "src/gen/lsgbin.h"
#include "src/parallel/thread_pool.h"
#include "src/util/graph_types.h"
#include "src/util/parse.h"
#include "src/util/sort.h"
#include "src/util/timer.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: make_lsgbin --in=PATH --out=PATH [--num-vertices=N]\n"
               "                   [--symmetrize] [--ranges=R]\n"
               "       make_lsgbin --rmat=SCALE,AVG_DEGREE,SEED --out=PATH "
               "[--ranges=R]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in;
  std::string out;
  std::string rmat;
  std::string value;
  lsg::VertexId num_vertices = 0;
  size_t ranges = 0;
  bool symmetrize = false;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--in", &in) || ParseFlag(argv[i], "--out", &out) ||
        ParseFlag(argv[i], "--rmat", &rmat)) {
      continue;
    }
    if (ParseFlag(argv[i], "--num-vertices", &value)) {
      num_vertices =
          lsg::ParseFlagValue<lsg::VertexId>("--num-vertices", value);
    } else if (ParseFlag(argv[i], "--ranges", &value)) {
      ranges = lsg::ParseFlagValue<size_t>("--ranges", value);
    } else if (std::strcmp(argv[i], "--symmetrize") == 0) {
      symmetrize = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage();
    }
  }
  if (out.empty() || (in.empty() == rmat.empty())) {
    return Usage();
  }

  try {
    lsg::Timer timer;
    std::vector<lsg::Edge> edges;
    if (!rmat.empty()) {
      int scale = 0;
      double avg_degree = 0.0;
      unsigned long long seed = 0;
      if (std::sscanf(rmat.c_str(), "%d,%lf,%llu", &scale, &avg_degree,
                      &seed) != 3 ||
          scale < 1 || scale > 30 || avg_degree <= 0.0) {
        std::fprintf(stderr, "bad --rmat spec: %s\n", rmat.c_str());
        return Usage();
      }
      lsg::DatasetSpec spec{"RMAT", scale, avg_degree, seed};
      edges = lsg::BuildDatasetEdges(spec);  // already symmetrized + deduped
      num_vertices = lsg::VertexId{1} << scale;
    } else {
      edges = lsg::ReadEdgesText(in);
    }
    double read_seconds = timer.Seconds();

    if (symmetrize) {
      size_t n = edges.size();
      edges.reserve(2 * n);
      for (size_t i = 0; i < n; ++i) {
        edges.push_back(lsg::Edge{edges[i].dst, edges[i].src});
      }
    }
    if (num_vertices == 0) {
      // ReadEdgesText admits ids below kInvalidVertex only, so max + 1
      // still fits in a VertexId.
      for (const lsg::Edge& e : edges) {
        num_vertices = std::max(num_vertices, std::max(e.src, e.dst) + 1);
      }
    }
    size_t dropped = lsg::RemoveOutOfRangeEdges(&edges, num_vertices);
    lsg::ParallelSortEdges(edges, lsg::ThreadPool::Global());

    timer.Reset();
    lsg::WriteLsgbin(out, num_vertices, edges, ranges);
    std::printf(
        "wrote %s: %u vertices, %zu edges (%zu dropped out-of-range), "
        "read %.3fs write %.3fs\n",
        out.c_str(), num_vertices, edges.size(), dropped, read_seconds,
        timer.Seconds());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
