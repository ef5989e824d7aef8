#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/gen/datasets.h"
#include "src/gen/edge_io.h"
#include "src/gen/rmat.h"
#include "src/gen/temporal.h"

namespace lsg {
namespace {

TEST(RmatTest, DeterministicByIndex) {
  RmatGenerator gen({16, 0.5, 0.1, 0.1}, 42);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(gen.EdgeAt(i), gen.EdgeAt(i));
  }
  std::vector<Edge> a = gen.Generate(100, 50);
  std::vector<Edge> b = gen.Generate(100, 50);
  EXPECT_EQ(a, b);
}

TEST(RmatTest, VerticesWithinRange) {
  RmatGenerator gen({12, 0.5, 0.1, 0.1}, 1);
  for (const Edge& e : gen.Generate(0, 10000)) {
    EXPECT_LT(e.src, gen.num_vertices());
    EXPECT_LT(e.dst, gen.num_vertices());
  }
}

TEST(RmatTest, SkewedDegreeDistribution) {
  // rMat with a=0.5 concentrates edges on low ids: the max degree must far
  // exceed the average (power-law-like skew drives LSGraph's design).
  RmatGenerator gen({12, 0.5, 0.1, 0.1}, 9);
  std::vector<uint32_t> degree(gen.num_vertices(), 0);
  constexpr uint64_t kEdges = 200000;
  for (const Edge& e : gen.Generate(0, kEdges)) {
    ++degree[e.src];
  }
  uint32_t max_degree = *std::max_element(degree.begin(), degree.end());
  double avg = static_cast<double>(kEdges) / gen.num_vertices();
  EXPECT_GT(max_degree, 5 * avg);
}

TEST(UniformTest, CoversSpaceEvenly) {
  UniformGenerator gen(10, 3);
  std::vector<uint32_t> degree(gen.num_vertices(), 0);
  for (const Edge& e : gen.Generate(0, 102400)) {
    ++degree[e.src];
  }
  uint32_t max_degree = *std::max_element(degree.begin(), degree.end());
  EXPECT_LT(max_degree, 300u);  // mean 100, uniform tail stays close
}

TEST(DatasetTest, BuildDatasetEdgesIsSortedUniqueSymmetric) {
  DatasetSpec spec = TestDataset();
  std::vector<Edge> edges = BuildDatasetEdges(spec);
  ASSERT_FALSE(edges.empty());
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  EXPECT_EQ(std::adjacent_find(edges.begin(), edges.end()), edges.end());
  for (const Edge& e : edges) {
    EXPECT_NE(e.src, e.dst);  // self-loops removed
    EXPECT_TRUE(std::binary_search(edges.begin(), edges.end(),
                                   Edge{e.dst, e.src}))
        << e.src << "->" << e.dst;
  }
}

TEST(DatasetTest, UpdateBatchesDifferByTrial) {
  DatasetSpec spec = TestDataset();
  std::vector<Edge> a = BuildUpdateBatch(spec, 100, 0);
  std::vector<Edge> b = BuildUpdateBatch(spec, 100, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, BuildUpdateBatch(spec, 100, 0));
}

TEST(TemporalTest, StreamHasRepeatsAndStaysInRange) {
  TemporalSpec spec{"T", 100, 5000, 0.4, 9};
  std::vector<Edge> events = GenerateTemporalStream(spec);
  ASSERT_EQ(events.size(), spec.num_events);
  size_t repeats = 0;
  std::set<Edge> seen;
  for (const Edge& e : events) {
    EXPECT_LT(e.src, spec.num_vertices);
    EXPECT_LT(e.dst, spec.num_vertices);
    repeats += !seen.insert(e).second;
  }
  EXPECT_GT(repeats, spec.num_events / 10);  // realistic duplicate pressure
}

TEST(TemporalTest, SplitTakesTenPercentSuffix) {
  TemporalSpec spec{"T", 100, 1000, 0.3, 4};
  TemporalSplit split = SplitTemporalStream(GenerateTemporalStream(spec));
  EXPECT_EQ(split.base.size(), 900u);
  EXPECT_EQ(split.stream.size(), 100u);
}

TEST(EdgeIoTest, TextRoundtrip) {
  std::vector<Edge> edges = {{1, 2}, {3, 4}, {0, 0}};
  std::string path = ::testing::TempDir() + "/edges.txt";
  WriteEdgesText(path, edges);
  EXPECT_EQ(ReadEdgesText(path), edges);
  std::remove(path.c_str());
}

TEST(EdgeIoTest, TextSkipsCommentsBlankLinesAndExtraColumns) {
  std::string path = ::testing::TempDir() + "/commented.txt";
  FILE* f = fopen(path.c_str(), "w");
  fprintf(f,
          "# SNAP header\n1 2 0.5 1700000000\n\n  \t\n%% other comment\n"
          "3\t4\r\n  # indented comment\n");
  fclose(f);
  std::vector<Edge> edges = ReadEdgesText(path);
  EXPECT_EQ(edges, (std::vector<Edge>{{1, 2}, {3, 4}}));
  std::remove(path.c_str());
}

// The message ReadEdgesText throws for `content`, or "" if it parses.
std::string ReadError(const std::string& path, const char* content) {
  FILE* f = fopen(path.c_str(), "w");
  fputs(content, f);
  fclose(f);
  std::string what;
  try {
    ReadEdgesText(path);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

TEST(EdgeIoTest, MalformedLinesThrowNamingTheLine) {
  // An id past 32 bits, a line that is not two ids, and a negative id: each
  // used to be narrowed, wrapped or skipped without a word.
  std::string path = ::testing::TempDir() + "/malformed.txt";
  EXPECT_NE(ReadError(path, "5000000000 1\n1 2\nfoo bar\n3 -1\n")
                .find(path + ":1:"),
            std::string::npos);
  EXPECT_NE(ReadError(path, "1 2\nfoo bar\n3 -1\n").find(path + ":2:"),
            std::string::npos);
  EXPECT_NE(ReadError(path, "1 2\n3 -1\n").find(path + ":2:"),
            std::string::npos);
  // One column, and the reserved kInvalidVertex id.
  EXPECT_NE(ReadError(path, "1 2\n7\n").find(path + ":2:"),
            std::string::npos);
  EXPECT_NE(ReadError(path, "4294967295 0\n").find(path + ":1:"),
            std::string::npos);
  EXPECT_EQ(ReadError(path, "4294967294 0\n"), "");
}

TEST(EdgeIoTest, MissingFileThrows) {
  EXPECT_THROW(ReadEdgesText("/nonexistent/nope.txt"), std::runtime_error);
}

}  // namespace
}  // namespace lsg
