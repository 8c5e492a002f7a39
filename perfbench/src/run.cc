// `perfbench run`: the timed part. Sets up every user path from the
// generated files, then measures, in order, the batch path (serial and
// parallel top-k, serial and parallel all-vertex pass), the served-query
// path (an open-loop light phase, then a closed-loop saturate phase) and
// the dynamic path (edge updates with a top-k read, and the all-CB
// maintenance engine). Every answer is checked; a wrong answer is a failed
// operation. With tracing on, spans around each call into src/ are kept in
// memory, written at the end, and turned into the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/all_ego.h"
#include "core/naive.h"
#include "core/opt_search.h"
#include "dynamic/lazy_topk.h"
#include "dynamic/local_update.h"
#include "graph/disk_csr.h"
#include "graph/io.h"
#include "parallel/parallel_ebw.h"
#include "parallel/parallel_opt_search.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kHubEgos = 32;

// Times OnBound→OnExact, i.e. one exact evaluation of a popped candidate
// including its bound publication, as "core.exact_eval" spans, and counts
// heap pops.
class ExactEvalObserver : public egobw::SearchObserver {
 public:
  ExactEvalObserver(Tracer* tracer, uint32_t parent)
      : tracer_(tracer), parent_(parent) {}
  uint64_t pops() const { return pops_; }
  void OnPop(VertexId, double) override { ++pops_; }
  void OnBound(VertexId, double) override { bound_at_ = Clock::now(); }
  void OnExact(VertexId v, double) override {
    tracer_->Record("core.exact_eval", bound_at_, Clock::now(), parent_, v);
  }

 private:
  Tracer* tracer_;
  uint32_t parent_;
  Clock::time_point bound_at_{};
  uint64_t pops_ = 0;
};

// One served request as the client saw it.
struct Reply {
  Clock::time_point due{}, sent{}, done{};
  bool answered = false;   // kOk response.
  bool certified = false;
  bool correct = true;
  double engine_s = 0.0;
  double covered = 0.0;    // Share of the requested work decided.
};

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
}

class Runner {
 public:
  explicit Runner(const RunConfig& config)
      : config_(config), tracer_(config.trace), untraced_(false) {}

  bool LoadInputs();
  // Input files to every path ready. The first setup's objects serve the
  // rest of the run; later ones are torn down again.
  bool Setup(bool keep);
  void Batch(double seconds);
  void LayerProbes();
  void ServeLight(size_t begin, size_t end);
  void ServeSaturate(double seconds);
  void Dynamic(size_t begin, size_t end);
  void CheckDynamic();
  size_t light_queries() const { return light_.size(); }
  size_t updates() const { return updates_.size(); }
  void Report();

 private:
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  egobw::QueryRequest Request(const QuerySpec& q) const;
  void Serve(const QuerySpec& q, Reply* reply) const;

  const RunConfig& config_;
  Tracer tracer_;
  Tracer untraced_;  // Alternate batch rounds of a traced run use this.
  uint64_t attempted_ = 0, failed_ = 0;

  // Inputs.
  std::vector<double> batch_ref_, serve_ref_, dyn_ref_;
  std::vector<QuerySpec> light_, saturate_;
  std::atomic<size_t> next_saturate_{0};  // Cycles through saturate_.
  std::vector<UpdateSpec> updates_;
  TopKResult batch_topk_ref_;

  // Ready state (the last setup repetition's).
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<egobw::MappedGraph> mapped_;
  std::unique_ptr<egobw::EgoBwServer> server_;
  std::unique_ptr<egobw::LazyTopK> lazy_;
  std::unique_ptr<egobw::LocalUpdateEngine> local_;

  // Measurements. Setup parts, one entry per setup.
  std::vector<double> parse_s_, mmap_s_, start_s_, lazy_seed_s_,
      local_seed_s_;
  std::vector<double> topk_s_, topk_par_s_, allcb_s_, allcb_par_s_;
  std::vector<double> traced_round_s_, untraced_round_s_;
  egobw::SearchStats topk_stats_, topk_par_stats_, allcb_stats_,
      allcb_par_stats_;
  std::vector<Reply> light_replies_;
  double saturate_answers_ = 0.0, saturate_s_ = 0.0;
  uint64_t peak_queue_depth_ = 0;
  std::vector<double> update_s_, local_update_s_;
  uint64_t recomputes_ = 0;
  int rounds_ = 0;
  uint64_t topk_pops_ = 0;  // Serial search, first round, traced runs.
  double hub_ego_ms_ = 0.0;
};

bool Runner::LoadInputs() {
  const std::string& d = config_.inputs;
  uint64_t oracle_mismatches = 0;
  if (!ReadDoubles(d + "/" + kBatchRefFile, &batch_ref_) ||
      !ReadDoubles(d + "/" + kDynRefFile, &dyn_ref_) ||
      !ReadDoubles(d + "/" + kServeRefFile, &serve_ref_) ||
      !ReadQueries(d + "/" + kLightFile, &light_) ||
      !ReadQueries(d + "/" + kSaturateFile, &saturate_) ||
      !ReadUpdates(d + "/" + kUpdatesFile, &updates_) ||
      !ReadCount(d + "/" + kOracleFile, &oracle_mismatches) ||
      light_.empty() || saturate_.empty() || updates_.empty()) {
    std::fprintf(stderr, "perfbench run: unreadable inputs in %s\n",
                 d.c_str());
    return false;
  }
  // The generator's cross-check of the batch and dynamic references
  // against the local evaluator is one checked operation.
  Count(oracle_mismatches == 0);
  batch_topk_ref_ = ReferenceTopK(batch_ref_, {}, kTopK);
  return true;
}

bool Runner::Setup(bool keep) {
  egobw::EgoBwServerOptions options;
  // A torn-down setup's server binds its own socket beside the live one.
  options.socket_path = keep ? config_.socket : config_.socket + ".rep";
  options.workers = kServeWorkers;
  options.default_deadline_ms = config_.spec->deadline_ms;
  ScopedSpan setup(&tracer_, "phase.setup", Tracer::kNone,
                   parse_s_.size());
  std::unique_ptr<Graph> graph;
  {
    ScopedSpan s(&tracer_, "graph.parse", setup.id());
    egobw::Result<Graph> g =
        egobw::LoadEdgeList(config_.inputs + "/" + kEdgeListFile);
    if (!g.ok()) return false;
    graph = std::make_unique<Graph>(std::move(g).value());
    parse_s_.push_back(s.Stop());
  }
  std::unique_ptr<egobw::MappedGraph> mapped;
  {
    ScopedSpan s(&tracer_, "graph.mmap_open", setup.id());
    egobw::Result<egobw::MappedGraph> m =
        egobw::MappedGraph::Open(config_.inputs + "/" + kImageFile);
    if (!m.ok()) return false;
    mapped = std::make_unique<egobw::MappedGraph>(std::move(m).value());
    (void)mapped->Advise(egobw::AccessHint::kRandomAccess);
    mmap_s_.push_back(s.Stop());
  }
  std::unique_ptr<egobw::EgoBwServer> server;
  {
    ScopedSpan s(&tracer_, "server.start", setup.id());
    server = std::make_unique<egobw::EgoBwServer>(mapped->graph(), options);
    egobw::Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench run: %s\n", st.ToString().c_str());
      return false;
    }
    start_s_.push_back(s.Stop());
  }
  std::unique_ptr<egobw::LazyTopK> lazy;
  {
    ScopedSpan s(&tracer_, "dynamic.lazy_seed", setup.id());
    lazy = std::make_unique<egobw::LazyTopK>(*graph, kTopK);
    lazy_seed_s_.push_back(s.Stop());
  }
  std::unique_ptr<egobw::LocalUpdateEngine> local;
  {
    ScopedSpan s(&tracer_, "dynamic.local_seed", setup.id());
    local = std::make_unique<egobw::LocalUpdateEngine>(*graph);
    local_seed_s_.push_back(s.Stop());
  }
  setup.Stop();
  if (keep) {
    graph_ = std::move(graph);
    mapped_ = std::move(mapped);
    server_ = std::move(server);
    lazy_ = std::move(lazy);
    local_ = std::move(local);
  }
  return true;
}

// Batch rounds for `seconds`, at least one, after kSetupRepsPerSegment
// more setups.
void Runner::Batch(double seconds) {
  for (int rep = 0; rep < kSetupRepsPerSegment; ++rep) Count(Setup(false));
  const size_t threads = config_.threads;
  Clock::time_point end = Clock::now() + FromSeconds(seconds);
  do {
    const int round = rounds_++;
    // A traced run alternates traced and untraced rounds; the difference
    // of their medians is the tracing overhead.
    bool traced = tracer_.enabled() && round % 2 == 0;
    Tracer* t = traced ? &tracer_ : &untraced_;
    ScopedSpan r(t, "phase.batch_round", Tracer::kNone, round);

    egobw::SearchStats st;
    TopKResult topk;
    {
      ScopedSpan s(t, "core.opt_search", r.id());
      ExactEvalObserver observer(t, s.id());
      egobw::OptBSearchOptions opt;
      opt.theta = kTheta;
      if (traced) opt.observer = &observer;
      topk = egobw::RunOptBSearch(*graph_, kTopK, opt, &st).value();
      topk_s_.push_back(s.Stop());
      if (round == 0) topk_pops_ = observer.pops();
    }
    Count(SameTopK(topk, batch_topk_ref_));
    if (round == 0) topk_stats_ = st;

    st = {};
    {
      ScopedSpan s(t, "parallel.opt_search", r.id());
      egobw::ParallelOptBSearchOptions popt;
      popt.theta = kTheta;
      topk = egobw::RunParallelOptBSearch(*graph_, kTopK, threads, popt, &st)
                 .value();
      topk_par_s_.push_back(s.Stop());
    }
    Count(SameTopK(topk, batch_topk_ref_));
    if (round == 0) topk_par_stats_ = st;

    st = {};
    std::vector<double> cb;
    {
      ScopedSpan s(t, "core.all_ego", r.id());
      egobw::AllEgoOptions aopt;
      aopt.spill_mode = egobw::SpillMode::kNever;
      cb = egobw::RunAllEgoBetweenness(*graph_, aopt, &st).value();
      allcb_s_.push_back(s.Stop());
    }
    Count(SameBits(cb, batch_ref_));
    if (round == 0) allcb_stats_ = st;

    st = {};
    {
      ScopedSpan s(t, "parallel.edge_pebw", r.id());
      egobw::PEBWOptions popt;
      popt.spill_mode = egobw::SpillMode::kNever;
      cb = egobw::RunEdgePEBW(*graph_, threads, popt, &st).value();
      allcb_par_s_.push_back(s.Stop());
    }
    Count(SameBits(cb, batch_ref_));
    if (round == 0) allcb_par_stats_ = st;

    if (tracer_.enabled()) {
      (traced ? traced_round_s_ : untraced_round_s_).push_back(r.Stop());
    }
  } while (Clock::now() < end);
}

// Traced runs only: one standalone relabel and the hub-ego evaluator cost.
void Runner::LayerProbes() {
  {
    ScopedSpan s(&tracer_, "graph.relabel");
    Graph relabeled = graph_->RelabeledByDegree();
    (void)relabeled;
  }
  // Mean local-evaluator time over the highest-degree egos: the per-vertex
  // cost the server and the lazy top-k engine pay.
  std::vector<VertexId> hubs(graph_->NumVertices());
  for (VertexId v = 0; v < hubs.size(); ++v) hubs[v] = v;
  std::sort(hubs.begin(), hubs.end(), [&](VertexId a, VertexId b) {
    if (graph_->Degree(a) != graph_->Degree(b)) {
      return graph_->Degree(a) > graph_->Degree(b);
    }
    return a < b;
  });
  hubs.resize(std::min(hubs.size(), kHubEgos));
  egobw::EgoScratch scratch(graph_->NumVertices());
  double total = 0.0;
  for (VertexId v : hubs) {
    ScopedSpan s(&tracer_, "core.ego_local", Tracer::kNone, v);
    double cb = egobw::ComputeEgoBetweennessLocal(*graph_, v, &scratch);
    total += s.Stop();
    Count(Close(cb, batch_ref_[v]));
  }
  hub_ego_ms_ = hubs.empty() ? 0.0 : total * 1e3 / hubs.size();
}

egobw::QueryRequest Runner::Request(const QuerySpec& q) const {
  egobw::QueryRequest req;
  req.k = kServeK;
  req.theta = kTheta;
  req.deadline_ms = 0;  // The server default.
  req.on_cancel = egobw::OnCancel::kAnytime;
  req.subset = q.subset;
  req.mode = egobw::QueryMode::kExact;
  return req;
}

// Sends one query and checks the answer: a certified answer must be the
// reference top-k of its subset; an uncertified one may hold only exact
// values of requested vertices.
void Runner::Serve(const QuerySpec& q, Reply* reply) const {
  reply->sent = Clock::now();
  egobw::Result<egobw::QueryResponse> r =
      egobw::QueryServer(config_.socket, Request(q), 10000);
  reply->done = Clock::now();
  if (!r.ok()) {
    reply->correct = false;  // Transport failure.
    return;
  }
  const egobw::QueryResponse& resp = r.value();
  if (resp.code != egobw::StatusCode::kOk) {
    // Sheds are misses, not wrong answers; anything else is a failure.
    reply->correct = resp.code == egobw::StatusCode::kResourceExhausted ||
                     resp.code == egobw::StatusCode::kUnavailable;
    return;
  }
  reply->answered = true;
  reply->certified = resp.certified;
  reply->engine_s = resp.engine_seconds;
  // The share of the request's candidates decided before the deadline.
  double work = static_cast<double>(q.subset.empty() ? serve_ref_.size()
                                                     : q.subset.size());
  reply->covered =
      1.0 - std::min(1.0, static_cast<double>(resp.frontier_remaining) / work);
  if (resp.certified) {
    reply->correct = CloseTopK(resp.topk, q.expected, serve_ref_);
    return;
  }
  for (const egobw::TopKEntry& e : resp.topk) {
    bool requested = q.subset.empty() ||
                     std::find(q.subset.begin(), q.subset.end(), e.vertex) !=
                         q.subset.end();
    if (!requested || e.vertex >= serve_ref_.size() ||
        !Close(e.cb, serve_ref_[e.vertex])) {
      reply->correct = false;
    }
  }
}

// Open loop: the light-phase requests [begin, end) at their seeded
// Poisson offsets from the first one, sent by up to `clients` connections;
// latency counts from each request's due time.
void Runner::ServeLight(size_t begin, size_t end) {
  light_replies_.resize(light_.size());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20) -
      FromSeconds(light_[begin].due_s);
  std::atomic<size_t> next{begin};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < config_.clients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = next++; i < end; i = next++) {
        Reply* reply = &light_replies_[i];
        reply->due = start + FromSeconds(light_[i].due_s);
        std::this_thread::sleep_until(reply->due);
        Serve(light_[i], reply);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t i = begin; i < end; ++i) {
    const Reply& r = light_replies_[i];
    Count(r.correct);
    uint32_t id = tracer_.Record("server.request", r.due, r.done,
                                 Tracer::kNone, i);
    if (r.answered) {
      tracer_.Record("server.engine", r.done - FromSeconds(r.engine_s),
                     r.done, id, i);
    }
  }
}

// Closed loop for `seconds`: every client sends its next query as soon as
// the previous one is answered. Throughput is taken between the first and
// the last answer of each call, so it is not quantized by the call length.
void Runner::ServeSaturate(double seconds) {
  const Clock::time_point end = Clock::now() + FromSeconds(seconds);
  std::vector<std::vector<Clock::time_point>> answered(config_.clients);
  std::vector<uint64_t> sent(config_.clients, 0), wrong(config_.clients, 0);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < config_.clients; ++c) {
    clients.emplace_back([&, c] {
      while (Clock::now() < end) {
        Reply reply;
        Serve(saturate_[next_saturate_++ % saturate_.size()], &reply);
        ++sent[c];
        if (reply.answered) answered[c].push_back(reply.done);
        if (!reply.correct) ++wrong[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Clock::time_point> done;
  for (size_t c = 0; c < config_.clients; ++c) {
    attempted_ += sent[c];
    failed_ += wrong[c];
    done.insert(done.end(), answered[c].begin(), answered[c].end());
  }
  std::sort(done.begin(), done.end());
  if (done.size() >= 2) {
    saturate_answers_ += static_cast<double>(done.size() - 1);
    saturate_s_ += SecondsBetween(done.front(), done.back());
  }
  peak_queue_depth_ = server_->Stats().peak_queue_depth;
}

// Each update of the set goes to the lazy top-k engine, followed by a
// top-k read, and to the all-CB maintenance engine.
void Runner::Dynamic(size_t begin, size_t end) {
  uint64_t recomputes_before = lazy_->exact_recomputations();
  for (size_t i = begin; i < end && i < updates_.size(); ++i) {
    const UpdateSpec& u = updates_[i];
    ScopedSpan update(&tracer_, "dynamic.update", Tracer::kNone, i);
    double write_s, read_s;
    egobw::Status st;
    {
      ScopedSpan s(&tracer_,
                   u.insert ? "dynamic.lazy_insert" : "dynamic.lazy_delete",
                   update.id(), i);
      st = u.insert ? lazy_->InsertEdge(u.u, u.v) : lazy_->DeleteEdge(u.u, u.v);
      write_s = s.Stop();
    }
    Count(st.ok());
    {
      ScopedSpan s(&tracer_, "dynamic.lazy_read", update.id(), i);
      TopKResult topk = lazy_->CurrentTopK();
      read_s = s.Stop();
      Count(topk.size() == kTopK && topk.certified);
    }
    {
      ScopedSpan s(&tracer_,
                   u.insert ? "dynamic.local_insert" : "dynamic.local_delete",
                   update.id(), i);
      st = u.insert ? local_->InsertEdge(u.u, u.v)
                    : local_->DeleteEdge(u.u, u.v);
      local_update_s_.push_back(s.Stop());
    }
    Count(st.ok());
    update_s_.push_back(write_s + read_s);
  }
  recomputes_ += lazy_->exact_recomputations() - recomputes_before;
}

// The maintained answers against the generator's reference for the final
// graph, which it built from the original edges and the update set.
void Runner::CheckDynamic() {
  uint64_t edges = graph_->NumEdges();
  for (const UpdateSpec& u : updates_) u.insert ? ++edges : --edges;
  Count(lazy_->graph().NumEdges() == edges);
  Count(local_->graph().NumEdges() == edges);
  Count(CloseTopK(lazy_->CurrentTopK(), ReferenceTopK(dyn_ref_, {}, kTopK),
                  dyn_ref_));
  std::vector<double> all = local_->AllCB();
  bool close = all.size() == dyn_ref_.size();
  for (size_t v = 0; close && v < all.size(); ++v) {
    close = Close(all[v], dyn_ref_[v]);
  }
  Count(close);
}

void Runner::Report() {
  ResultLine out;
  const std::vector<Reply>& light = light_replies_;
  // Light-phase latency from due time; a shed or failed request counts as
  // infinitely late. Every run sends the same query set, so the quantiles
  // differ between seeds only by queueing.
  std::vector<double> latency_ms;
  for (const Reply& r : light) {
    latency_ms.push_back(r.answered ? SecondsBetween(r.due, r.done) * 1e3
                                    : 1e9);
  }
  const double deadline_ms = config_.spec->deadline_ms;
  auto in_deadline = [&](const Reply& r) {
    return r.certified && SecondsBetween(r.due, r.done) * 1e3 <= deadline_ms;
  };
  double ok = 0.0;
  for (const Reply& r : light) ok += in_deadline(r) ? 1.0 : 0.0;

  if (!config_.trace) {
    // Each part's median, summed: a setup is mostly the two engine seeds,
    // and a slow moment of the host that hits one part of one setup is
    // dropped instead of inflating that whole setup.
    out.Add("setup_s",
            Median(parse_s_) + Median(mmap_s_) + Median(start_s_) +
                Median(lazy_seed_s_) + Median(local_seed_s_),
            "s");
    out.Add("peak_rss_mib", PeakRssMiB(), "MiB");
    out.Add("topk_s", Median(topk_s_), "s");
    out.Add("allcb_s", Median(allcb_s_), "s");
    out.Add("serve_p50_ms", Quantile(latency_ms, 0.5), "ms");
    out.Add("serve_qps",
            saturate_s_ > 0.0 ? saturate_answers_ / saturate_s_ : 0.0, "1/s");
    // Throughput over the whole fixed update set, not a median: update
    // costs spread over three orders of magnitude, so a median is the time
    // of the one or two updates in the middle and jumps with their noise.
    out.Add("topk_updates_per_s", update_s_.size() / Sum(update_s_), "1/s");
    out.Add("allcb_updates_per_s",
            local_update_s_.size() / Sum(local_update_s_), "1/s");
    std::printf("%s\n", out.Json(attempted_, failed_).c_str());
    return;
  }

  const Tracer& t = tracer_;
  out.Add("graph.parse_s", Median(parse_s_), "s");
  out.Add("graph.mmap_open_s", Median(mmap_s_), "s");
  out.Add("graph.relabel_s", Median(t.Durations("graph.relabel")), "s");
  out.Add("server.start_s", Median(start_s_), "s");

  std::vector<double> eval_s, eval_max_ms, eval_share;
  std::vector<double> search_s = t.Durations("core.opt_search");
  auto totals = t.ChildTotals("core.opt_search", "core.exact_eval");
  for (size_t i = 0; i < totals.size(); ++i) {
    eval_s.push_back(totals[i].first);
    eval_max_ms.push_back(totals[i].second * 1e3);
    eval_share.push_back(totals[i].first / search_s[i]);
  }
  out.Add("search.exact_eval_s", Median(eval_s), "s");
  out.Add("search.exact_eval_max_ms", Median(eval_max_ms), "ms");
  out.Add("search.exact_eval_share", Median(eval_share), "fraction");
  out.Add("search.gate_s", Median(t.SelfTimes("core.opt_search")), "s");
  out.Add("search.pops", topk_pops_, "count");
  out.Add("search.pushbacks", topk_stats_.heap_pushbacks, "count");
  out.Add("search.pruned", topk_stats_.pruned, "count");
  out.Add("search.exact_computations", topk_stats_.exact_computations,
          "count");
  out.Add("search.useful_ratio",
          static_cast<double>(kTopK) /
              std::max<uint64_t>(1, topk_stats_.exact_computations),
          "fraction");

  out.Add("kernel.edges_processed", allcb_stats_.edges_processed, "count");
  out.Add("kernel.triangles", allcb_stats_.triangles, "count");
  out.Add("kernel.connector_increments", allcb_stats_.connector_increments,
          "count");
  out.Add("kernel.increments_per_s",
          allcb_stats_.connector_increments /
              Median(t.Durations("core.all_ego")),
          "1/s");
  out.Add("smap.peak_live_maps", allcb_stats_.peak_live_maps, "count");
  out.Add("smap.peak_live_mib", allcb_stats_.peak_live_map_bytes / kMiB,
          "MiB");
  out.Add("smap.evicted_rebuilds", allcb_stats_.evicted_rebuilds, "count");
  out.Add("eval.hub_ego_ms", hub_ego_ms_, "ms");

  out.Add("parallel.topk_s", Median(topk_par_s_), "s");
  out.Add("parallel.allcb_s", Median(allcb_par_s_), "s");
  out.Add("parallel.topk_speedup", Median(topk_s_) / Median(topk_par_s_),
          "ratio");
  out.Add("parallel.topk_exact_computations",
          topk_par_stats_.exact_computations, "count");
  out.Add("parallel.relaxed_pops", topk_par_stats_.relaxed_pops, "count");
  out.Add("parallel.allcb_speedup", Median(allcb_s_) / Median(allcb_par_s_),
          "ratio");
  out.Add("parallel.allcb_evicted_rebuilds",
          allcb_par_stats_.evicted_rebuilds, "count");

  out.Add("dynamic.lazy_seed_s", Median(lazy_seed_s_), "s");
  out.Add("dynamic.local_seed_s", Median(local_seed_s_), "s");
  out.Add("dynamic.recomputes_per_update",
          static_cast<double>(recomputes_) / updates_.size(), "count");
  out.Add("dynamic.insert_p50_ms",
          Median(t.Durations("dynamic.lazy_insert")) * 1e3, "ms");
  out.Add("dynamic.delete_p50_ms",
          Median(t.Durations("dynamic.lazy_delete")) * 1e3, "ms");
  out.Add("dynamic.read_p50_ms",
          Median(t.Durations("dynamic.lazy_read")) * 1e3, "ms");
  out.Add("dynamic.local_insert_p50_us",
          Median(t.Durations("dynamic.local_insert")) * 1e6, "us");
  out.Add("dynamic.local_delete_p50_us",
          Median(t.Durations("dynamic.local_delete")) * 1e6, "us");

  std::vector<double> engine_ms = t.Durations("server.engine");
  for (double& x : engine_ms) x *= 1e3;
  std::vector<double> wait_ms = t.SelfTimes("server.request");
  for (double& x : wait_ms) x *= 1e3;
  out.Add("server.latency_p90_ms", Quantile(latency_ms, 0.9), "ms");
  out.Add("server.engine_p50_ms", Quantile(engine_ms, 0.5), "ms");
  out.Add("server.engine_p90_ms", Quantile(engine_ms, 0.9), "ms");
  out.Add("server.wait_p50_ms", Quantile(wait_ms, 0.5), "ms");
  out.Add("server.wait_p90_ms", Quantile(wait_ms, 0.9), "ms");
  double answered = 0, uncertified = 0, frontier = 0, whole = 0,
         whole_ok = 0;
  std::vector<double> lag_ms;
  for (size_t i = 0; i < light.size(); ++i) {
    const Reply& r = light[i];
    lag_ms.push_back(SecondsBetween(r.due, r.sent) * 1e3);
    frontier += 1.0 - r.covered;
    if (r.answered) {
      answered += 1;
      if (!r.certified) uncertified += 1;
    }
    if (light_[i].subset.empty()) {
      whole += 1;
      if (in_deadline(r)) whole_ok += 1;
    }
  }
  out.Add("server.ok_frac", ok / light.size(), "fraction");
  out.Add("server.uncertified_frac", uncertified / std::max(1.0, answered),
          "fraction");
  out.Add("server.frontier_frac", frontier / light.size(), "fraction");
  out.Add("server.whole_graph_ok_frac", whole_ok / std::max(1.0, whole),
          "fraction");
  out.Add("server.peak_queue_depth", peak_queue_depth_, "count");
  out.Add("gen.lag_p90_ms", Quantile(lag_ms, 0.9), "ms");

  out.Add("trace.spans", t.size(), "count");
  out.Add("trace.overhead_frac",
          Median(traced_round_s_) / Median(untraced_round_s_) - 1.0,
          "fraction");
  if (!config_.trace_out.empty() && !t.Write(config_.trace_out)) {
    std::fprintf(stderr, "perfbench run: cannot write %s\n",
                 config_.trace_out.c_str());
  }
  std::printf("%s\n", out.Json(attempted_, failed_).c_str());
}

}  // namespace

int Run(const RunConfig& config) {
  Runner runner(config);
  if (!runner.LoadInputs() || !runner.Setup(true)) return 1;
  // Every phase runs in kSegments slices spread over the run, so a slow
  // stretch of a shared host (tens of seconds) reaches a share of each
  // metric's samples instead of all of them.
  const size_t light = runner.light_queries();
  const size_t updates = runner.updates();
  for (size_t seg = 0; seg < kSegments; ++seg) {
    runner.Batch(config.seconds * kBatchShare / kSegments);
    runner.ServeLight(seg * light / kSegments, (seg + 1) * light / kSegments);
    runner.Dynamic(seg * updates / kSegments,
                   (seg + 1) * updates / kSegments);
    runner.ServeSaturate(config.seconds * kSaturateShare / kSegments);
  }
  if (config.trace) runner.LayerProbes();
  runner.CheckDynamic();
  runner.Report();
  return 0;
}

}  // namespace perfbench
