// `perfbench gen`: writes one workload's seeded inputs and reference
// answers. Untimed; the timed runner reads only these files.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "benchlib/workloads.h"
#include "core/all_ego.h"
#include "core/naive.h"
#include "graph/disk_csr.h"
#include "graph/graph_builder.h"
#include "graph/io.h"
#include "util/random.h"

namespace perfbench {

namespace {

bool Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench gen: %s\n", what.c_str());
  return false;
}

// `count` Poisson arrival offsets at `rate` per second.
std::vector<double> Arrivals(double rate, size_t count, egobw::Rng* rng) {
  std::vector<double> out;
  double t = 0.0;
  while (out.size() < count) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    out.push_back(t);
  }
  return out;
}

}  // namespace

bool Generate(const WorkloadSpec& spec, uint64_t seed, double seconds,
              const std::string& dir) {
  // The run's seed orders the fixed light-phase query set and draws its
  // arrival times.
  egobw::Rng rng(seed);
  const std::string edges = dir + "/" + kEdgeListFile;
  const std::string image = dir + "/" + kImageFile;

  // The runner parses this file, and LoadEdgeList assigns ids by first
  // appearance, so every reference is computed on the re-loaded graph.
  if (!egobw::SaveEdgeList(spec.make_graph(), edges).ok()) {
    return Fail("cannot write " + edges);
  }
  egobw::Result<Graph> loaded = egobw::LoadEdgeList(edges);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const Graph& g = loaded.value();

  // Batch reference: the serial streaming pass, validated against the
  // independent per-vertex local evaluator.
  std::vector<double> batch_ref = egobw::ComputeAllEgoBetweenness(g);
  std::vector<double> oracle = egobw::ComputeAllEgoBetweennessNaive(g);
  uint64_t mismatches = 0;
  for (size_t v = 0; v < oracle.size(); ++v) {
    if (!Close(batch_ref[v], oracle[v])) ++mismatches;
  }

  // Serving inputs live in the packed image's id space.
  if (!egobw::PackGraphImage(g, image).ok()) {
    return Fail("cannot pack " + image);
  }
  egobw::Result<egobw::MappedGraph> mapped = egobw::MappedGraph::Open(image);
  if (!mapped.ok()) return Fail(mapped.status().ToString());
  const Graph& served = mapped.value().graph();
  // The server's subset evaluator, so certified subset answers compare
  // bit for bit; whole-graph answers come from the kernel and compare
  // within the cross-evaluator tolerance.
  std::vector<double> serve_ref = egobw::ComputeAllEgoBetweennessNaive(served);

  const size_t light_count = static_cast<size_t>(
      std::lround(spec.light_rate * seconds * kLightShare));
  egobw::ServingMixOptions mix;
  mix.count = static_cast<uint32_t>(light_count) + kSaturatePool;
  mix.subset_cap = spec.subset_cap;
  mix.k = kServeK;
  mix.theta = kTheta;
  mix.full_graph_fraction = kFullGraphFraction;
  mix.approx_fraction = 0.0;
  std::vector<egobw::ServingQuerySpec> stream =
      egobw::ZipfServingMix(served, mix, kMixSeed);
  std::vector<QuerySpec> light, saturate;
  for (size_t i = 0; i < stream.size(); ++i) {
    QuerySpec q;
    q.subset = stream[i].subset;
    q.expected = ReferenceTopK(serve_ref, q.subset, kServeK);
    (i < light_count ? light : saturate).push_back(std::move(q));
  }
  rng.Shuffle(&light);
  std::vector<double> due = Arrivals(spec.light_rate, light.size(), &rng);
  for (size_t i = 0; i < light.size(); ++i) light[i].due_s = due[i];

  // Alternating inserts of non-edges and deletes of original edges: both
  // pickers return distinct pairs, so no update of the set can fail. The
  // order is fixed too: with a few dozen updates per run on the hub graph,
  // reordering alone moves the update medians by ~10 %.
  auto inserts = egobw::PickNonEdges(g, spec.updates / 2, kInsertSeed);
  auto deletes = egobw::PickExistingEdges(g, spec.updates / 2, kDeleteSeed);
  std::vector<UpdateSpec> updates;
  for (size_t i = 0; i < inserts.size() && i < deletes.size(); ++i) {
    updates.push_back({true, inserts[i].first, inserts[i].second});
    updates.push_back({false, deletes[i].first, deletes[i].second});
  }

  // Dynamic reference: the final graph built from the original edges and
  // the update set, independently of the engines under test, and its CB
  // from a fresh pass checked against the local evaluator too.
  std::set<std::pair<VertexId, VertexId>> deleted;
  for (const UpdateSpec& u : updates) {
    if (!u.insert) deleted.insert(std::minmax(u.u, u.v));
  }
  egobw::GraphBuilder builder(g.NumVertices());
  for (const auto& [a, b] : g.Edges()) {
    if (deleted.count(std::minmax(a, b)) == 0) builder.AddEdge(a, b);
  }
  for (const UpdateSpec& u : updates) {
    if (u.insert) builder.AddEdge(u.u, u.v);
  }
  const Graph final_graph = builder.Build();
  std::vector<double> dyn_ref = egobw::ComputeAllEgoBetweenness(final_graph);
  oracle = egobw::ComputeAllEgoBetweennessNaive(final_graph);
  for (size_t v = 0; v < oracle.size(); ++v) {
    if (!Close(dyn_ref[v], oracle[v])) ++mismatches;
  }

  if (mismatches > 0) {
    std::fprintf(stderr, "perfbench gen: %llu vertices disagree with the "
                 "local evaluator\n", static_cast<unsigned long long>(
                     mismatches));
  }
  if (!WriteDoubles(dir + "/" + kBatchRefFile, batch_ref) ||
      !WriteDoubles(dir + "/" + kDynRefFile, dyn_ref) ||
      !WriteDoubles(dir + "/" + kServeRefFile, serve_ref) ||
      !WriteQueries(dir + "/" + kLightFile, light) ||
      !WriteQueries(dir + "/" + kSaturateFile, saturate) ||
      !WriteUpdates(dir + "/" + kUpdatesFile, updates) ||
      !WriteCount(dir + "/" + kOracleFile, mismatches)) {
    return Fail("cannot write the inputs under " + dir);
  }
  std::printf(
      "{\"graph\": {\"vertices\": %u, \"edges\": %llu, \"max_degree\": "
      "%u}, \"content_seeds\": {\"graph\": 7, \"mix\": %llu, \"inserts\": "
      "%llu, \"deletes\": %llu}, \"order_seed\": %llu, \"light_rate\": %g, "
      "\"light_queries\": %zu, \"subset_cap\": %u, \"updates\": %zu, "
      "\"server_workers\": %zu, \"deadline_ms\": %u}\n",
      g.NumVertices(), static_cast<unsigned long long>(g.NumEdges()),
      g.MaxDegree(), static_cast<unsigned long long>(kMixSeed),
      static_cast<unsigned long long>(kInsertSeed),
      static_cast<unsigned long long>(kDeleteSeed),
      static_cast<unsigned long long>(seed), spec.light_rate, light.size(),
      spec.subset_cap, updates.size(), kServeWorkers, spec.deadline_ms);
  return true;
}

}  // namespace perfbench
