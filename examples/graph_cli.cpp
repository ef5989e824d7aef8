// Interactive graph shell: a line-oriented CLI over a live LSGraph, the
// fourth runnable example and a handy way to poke at the engine.
//
//   ./graph_cli [num_vertices]
//
// Commands (one per line; `help` prints this):
//   load <file>            load a text edge list (src dst per line)
//   gen <scale> <edges>    generate an rMat graph
//   add <src> <dst>        insert one edge
//   del <src> <dst>        delete one edge
//   has <src> <dst>        edge membership
//   deg <v>                degree of v
//   nbrs <v>               list v's neighbors (first 32)
//   bfs <src>              BFS reach + depth
//   pr                     top-5 PageRank vertices
//   cc                     number of connected components
//   tc                     triangle count
//   stats                  vertices / edges / memory
//   save <file>            write the graph as .lsgbin (make_lsgbin's format)
//   quit
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analytics/bfs.h"
#include "src/analytics/cc.h"
#include "src/analytics/pagerank.h"
#include "src/analytics/tc.h"
#include "src/core/lsgraph.h"
#include "src/gen/edge_io.h"
#include "src/gen/lsgbin.h"
#include "src/gen/rmat.h"
#include "src/util/parse.h"

namespace {

using namespace lsg;

void Help() {
  std::printf(
      "commands: load <file> | gen <scale> <edges> | add s d | del s d | "
      "has s d | deg v | nbrs v | bfs s | pr | cc | tc | stats | "
      "save <file> | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<VertexId> n_arg =
      argc > 1 ? ParseNumber<VertexId>(argv[1])
               : std::optional<VertexId>(1u << 16);
  if (argc > 2 || !n_arg || *n_arg == 0) {
    std::fprintf(stderr, "usage: graph_cli [num_vertices >= 1]\n");
    return 2;
  }
  const VertexId n = *n_arg;
  LSGraph graph(n);
  ThreadPool& pool = ThreadPool::Global();
  std::printf("lsgraph shell: %u vertices. Type 'help'.\n", n);

  char line[512];
  while (std::printf("> "), std::fflush(stdout),
         std::fgets(line, sizeof(line), stdin) != nullptr) {
    char cmd[32] = {0};
    char arg1[256] = {0};
    unsigned long a = 0;
    unsigned long b = 0;
    if (std::sscanf(line, "%31s", cmd) != 1) {
      continue;
    }
    if (std::strcmp(cmd, "quit") == 0 || std::strcmp(cmd, "exit") == 0) {
      break;
    } else if (std::strcmp(cmd, "help") == 0) {
      Help();
    } else if (std::strcmp(cmd, "load") == 0 &&
               std::sscanf(line, "%*s %255s", arg1) == 1) {
      try {
        std::vector<Edge> edges = ReadEdgesText(arg1);
        size_t skipped = 0;
        std::erase_if(edges, [&](const Edge& e) {
          bool bad = e.src >= n || e.dst >= n;
          skipped += bad;
          return bad;
        });
        graph.BuildFromEdges(std::move(edges));
        std::printf("loaded; %llu edges (%zu out-of-range lines skipped)\n",
                    static_cast<unsigned long long>(graph.num_edges()),
                    skipped);
      } catch (const std::exception& e) {
        std::printf("error: %s\n", e.what());
      }
    } else if (std::strcmp(cmd, "gen") == 0 &&
               std::sscanf(line, "%*s %lu %lu", &a, &b) == 2) {
      // The bound make_lsgbin --rmat uses; it also keeps the shift below
      // defined.
      if (a < 1 || a > 30) {
        std::printf("scale %lu out of range [1, 30]\n", a);
        continue;
      }
      int scale = static_cast<int>(a);
      if ((VertexId{1} << scale) > n) {
        std::printf("scale %d exceeds %u vertices\n", scale, n);
        continue;
      }
      RmatGenerator gen({scale, 0.5, 0.1, 0.1}, 1);
      graph.BuildFromEdges(gen.Generate(0, b));
      std::printf("generated; %llu unique edges\n",
                  static_cast<unsigned long long>(graph.num_edges()));
    } else if (std::strcmp(cmd, "add") == 0 &&
               std::sscanf(line, "%*s %lu %lu", &a, &b) == 2 && a < n &&
               b < n) {
      std::printf("%s\n", graph.InsertEdge(a, b) ? "added" : "already there");
    } else if (std::strcmp(cmd, "del") == 0 &&
               std::sscanf(line, "%*s %lu %lu", &a, &b) == 2 && a < n &&
               b < n) {
      std::printf("%s\n", graph.DeleteEdge(a, b) ? "deleted" : "not present");
    } else if (std::strcmp(cmd, "has") == 0 &&
               std::sscanf(line, "%*s %lu %lu", &a, &b) == 2 && a < n &&
               b < n) {
      std::printf("%s\n", graph.HasEdge(a, b) ? "yes" : "no");
    } else if (std::strcmp(cmd, "deg") == 0 &&
               std::sscanf(line, "%*s %lu", &a) == 1 && a < n) {
      std::printf("%zu\n", graph.degree(a));
    } else if (std::strcmp(cmd, "nbrs") == 0 &&
               std::sscanf(line, "%*s %lu", &a) == 1 && a < n) {
      size_t shown = 0;
      graph.map_neighbors(static_cast<VertexId>(a), [&shown](VertexId u) {
        if (shown < 32) {
          std::printf("%u ", u);
        }
        ++shown;
      });
      std::printf(shown > 32 ? "... (%zu total)\n" : "(%zu total)\n", shown);
    } else if (std::strcmp(cmd, "bfs") == 0 &&
               std::sscanf(line, "%*s %lu", &a) == 1 && a < n) {
      // Push-only: CLI edge lists are not necessarily symmetrized.
      BfsResult r = BfsPush(graph, static_cast<VertexId>(a), pool);
      uint32_t max_level = 0;
      for (uint32_t l : r.level) {
        if (l != ~uint32_t{0}) {
          max_level = std::max(max_level, l);
        }
      }
      std::printf("reached %zu vertices, eccentricity %u\n", r.reached,
                  max_level);
    } else if (std::strcmp(cmd, "pr") == 0) {
      std::vector<double> rank = PageRank(graph, pool);
      std::vector<VertexId> top;
      for (VertexId v = 0; v < n; ++v) {
        top.push_back(v);
        std::push_heap(top.begin(), top.end(), [&rank](VertexId x, VertexId y) {
          return rank[x] > rank[y];
        });
        if (top.size() > 5) {
          std::pop_heap(top.begin(), top.end(), [&rank](VertexId x, VertexId y) {
            return rank[x] > rank[y];
          });
          top.pop_back();
        }
      }
      std::sort(top.begin(), top.end(),
                [&rank](VertexId x, VertexId y) { return rank[x] > rank[y]; });
      for (VertexId v : top) {
        std::printf("v%u: %.6f (deg %zu)\n", v, rank[v], graph.degree(v));
      }
    } else if (std::strcmp(cmd, "cc") == 0) {
      // Push-only for the same reason as bfs: input may be directed.
      EdgeMapOptions push_only;
      push_only.direction = Direction::kPush;
      std::vector<VertexId> labels = ConnectedComponents(graph, pool, push_only);
      std::map<VertexId, size_t> sizes;
      for (VertexId v = 0; v < n; ++v) {
        ++sizes[labels[v]];
      }
      std::printf("%zu components (largest %zu)\n", sizes.size(),
                  std::max_element(sizes.begin(), sizes.end(),
                                   [](const auto& x, const auto& y) {
                                     return x.second < y.second;
                                   })
                      ->second);
    } else if (std::strcmp(cmd, "tc") == 0) {
      std::printf("%llu triangles\n",
                  static_cast<unsigned long long>(
                      TriangleCount(graph, pool).triangles));
    } else if (std::strcmp(cmd, "stats") == 0) {
      std::printf("%u vertices, %llu edges, %.2f MB (%.2f%% index)\n", n,
                  static_cast<unsigned long long>(graph.num_edges()),
                  graph.memory_footprint() / 1e6,
                  100.0 * graph.index_bytes() /
                      std::max<size_t>(graph.memory_footprint(), 1));
    } else if (std::strcmp(cmd, "save") == 0 &&
               std::sscanf(line, "%*s %255s", arg1) == 1) {
      try {
        WriteLsgbin(arg1, graph.num_vertices(), DumpEdges(graph));
        std::printf("saved to %s\n", arg1);
      } catch (const std::exception& e) {
        std::printf("error: %s\n", e.what());
      }
    } else {
      Help();
    }
  }
  return 0;
}
