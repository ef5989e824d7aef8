// Edge-list text I/O: "src dst" per line, '#' comments (the SNAP
// convention). The binary graph format is .lsgbin (lsgbin.h).
#ifndef SRC_GEN_EDGE_IO_H_
#define SRC_GEN_EDGE_IO_H_

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/graph_types.h"
#include "src/util/parse.h"

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

// Each line that is neither blank nor a comment must start with two ids
// in [0, kInvalidVertex); further columns (weights, timestamps) are
// ignored. Anything else throws, naming the path and line: a wrapped or
// dropped id would silently build a different graph.
inline std::vector<Edge> ReadEdgesText(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open for read: " + path);
  }
  constexpr std::string_view kSpace = " \t\r";
  std::vector<Edge> edges;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    std::string_view rest = line;
    auto next_token = [&rest, kSpace]() {
      size_t begin = std::min(rest.find_first_not_of(kSpace), rest.size());
      size_t end = std::min(rest.find_first_of(kSpace, begin), rest.size());
      std::string_view token = rest.substr(begin, end - begin);
      rest.remove_prefix(end);
      return token;
    };
    std::string_view first = next_token();
    if (first.empty() || first[0] == '#' || first[0] == '%') {
      continue;
    }
    std::optional<VertexId> src = ParseNumber<VertexId>(first);
    std::optional<VertexId> dst = ParseNumber<VertexId>(next_token());
    if (!src || !dst || *src == kInvalidVertex || *dst == kInvalidVertex) {
      throw std::runtime_error(
          path + ":" + std::to_string(line_no) +
          ": expected \"src dst\" with ids below " +
          std::to_string(kInvalidVertex));
    }
    edges.push_back(Edge{*src, *dst});
  }
  return edges;
}

}  // namespace lsg

#endif  // SRC_GEN_EDGE_IO_H_
