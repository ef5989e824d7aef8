// Social-network stream monitor: the scenario from the paper's introduction
// (Twitter/Facebook relationship churn). A bursty temporal stream of
// follow/unfollow events is ingested in batches; after every batch the app
// answers live queries — connected-component sizes (community structure) and
// triangle counts (clustering) — on the updated snapshot.
//
//   ./social_stream [num_users] [num_events]
#include <cstdio>
#include <map>
#include <optional>
#include <vector>

#include "src/analytics/cc.h"
#include "src/analytics/tc.h"
#include "src/core/lsgraph.h"
#include "src/gen/temporal.h"
#include "src/util/parse.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  using namespace lsg;

  const std::optional<VertexId> users_arg =
      argc > 1 ? ParseNumber<VertexId>(argv[1])
               : std::optional<VertexId>(50000);
  const std::optional<uint64_t> events_arg =
      argc > 2 ? ParseNumber<uint64_t>(argv[2])
               : std::optional<uint64_t>(400000);
  if (argc > 3 || !users_arg || *users_arg == 0 || !events_arg ||
      *events_arg == 0) {
    std::fprintf(stderr,
                 "usage: social_stream [num_users >= 1] [num_events >= 1]\n");
    return 2;
  }
  const VertexId num_users = *users_arg;
  const uint64_t num_events = *events_arg;

  TemporalSpec spec{"social", num_users, num_events, /*repeat_prob=*/0.35,
                    /*seed=*/7};
  std::vector<Edge> events = GenerateTemporalStream(spec);
  std::printf("social stream: %u users, %zu follow events\n", num_users,
              events.size());

  LSGraph graph(num_users);
  ThreadPool& pool = ThreadPool::Global();

  // Ingest in arrival-order batches; every event is symmetrized (follow
  // relationships are mutual edges here) and about 10% of batches are
  // unfollow bursts.
  constexpr size_t kBatch = 20000;
  size_t round = 0;
  for (size_t off = 0; off < events.size(); off += kBatch, ++round) {
    size_t len = std::min(kBatch, events.size() - off);
    std::vector<Edge> batch;
    batch.reserve(2 * len);
    for (size_t i = off; i < off + len; ++i) {
      batch.push_back(events[i]);
      batch.push_back(Edge{events[i].dst, events[i].src});
    }
    Timer timer;
    size_t changed;
    const char* kind;
    if (round % 10 == 9) {
      changed = graph.DeleteBatch(batch);
      kind = "unfollow";
    } else {
      changed = graph.InsertBatch(batch);
      kind = "follow";
    }
    double update_ms = timer.Millis();

    timer.Reset();
    std::vector<VertexId> labels = ConnectedComponents(graph, pool);
    std::map<VertexId, size_t> sizes;
    for (VertexId v = 0; v < num_users; ++v) {
      ++sizes[labels[v]];
    }
    size_t largest = 0;
    for (const auto& [label, size] : sizes) {
      largest = std::max(largest, size);
    }
    double cc_ms = timer.Millis();

    std::printf(
        "batch %2zu (%-8s): %6zu edges changed in %7.2f ms | %6zu "
        "communities, largest %6zu (%.2f ms)\n",
        round, kind, changed, update_ms, sizes.size(), largest, cc_ms);
  }

  Timer timer;
  TriangleCountResult tc = TriangleCount(graph, pool);
  std::printf(
      "final snapshot: %llu edges, %llu triangles (%.2f ms, traversal "
      "%.1f%%)\n",
      static_cast<unsigned long long>(graph.num_edges()),
      static_cast<unsigned long long>(tc.triangles), timer.Millis(),
      100.0 * tc.traversal_seconds * 1000 / timer.Millis());
  return 0;
}
