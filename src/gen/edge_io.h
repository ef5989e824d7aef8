// Edge-list text I/O: "src dst" per line, '#' comments (the SNAP
// convention). The binary graph format is .lsgbin (lsgbin.h).
#ifndef SRC_GEN_EDGE_IO_H_
#define SRC_GEN_EDGE_IO_H_

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/graph_types.h"

namespace lsg {

inline void WriteEdgesText(const std::string& path,
                           const std::vector<Edge>& edges) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for write: " + path);
  }
  for (const Edge& e : edges) {
    std::fprintf(f, "%u %u\n", e.src, e.dst);
  }
  std::fclose(f);
}

inline std::vector<Edge> ReadEdgesText(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for read: " + path);
  }
  std::vector<Edge> edges;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#' || line[0] == '%' || line[0] == '\n') {
      continue;
    }
    unsigned long src = 0;
    unsigned long dst = 0;
    if (std::sscanf(line, "%lu %lu", &src, &dst) == 2) {
      edges.push_back(Edge{static_cast<VertexId>(src), static_cast<VertexId>(dst)});
    }
  }
  std::fclose(f);
  return edges;
}

}  // namespace lsg

#endif  // SRC_GEN_EDGE_IO_H_
