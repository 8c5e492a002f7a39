#include "bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "graph/generators.h"

namespace perfbench {

// ------------------------------------------------------------- workloads --

namespace {

// The generator seed of every existing bench graph, so graph-level numbers
// line up with ROADMAP's baseline.
constexpr uint64_t kGraphSeed = 7;

// Skewed R-MAT with the repo's standard parameters: a few hubs of degree
// ~450 whose exact evaluation dominates top-k, serving and updates.
Graph HubGraph() { return egobw::RMat(10, 16, 0.57, 0.19, 0.19, kGraphSeed); }

// Co-authorship cliques in 128 communities: many triangles, max degree
// ~70, no hub whose evaluation dominates, so the edge kernel, the S-map
// store and per-request overheads carry the time instead.
Graph FlatGraph() {
  return egobw::Collaboration(8192, 8192, 8, 128, 0.1, kGraphSeed);
}

// The hub workload serves small subsets under a long deadline, so its
// served queries finish certified and their latency is evaluator time.
const WorkloadSpec kWorkloads[] = {
    {"rmat10-hubs", 4.0, 16, 1000, 96, HubGraph},
    {"collab-flat", 20.0, 128, 100, 40000, FlatGraph},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

// ----------------------------------------------------------- input files --

bool WriteDoubles(const std::string& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary);
  uint64_t n = v.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  return static_cast<bool>(out);
}

bool ReadDoubles(const std::string& path, std::vector<double>* v) {
  std::ifstream in(path, std::ios::binary);
  uint64_t n = 0;
  if (!in.read(reinterpret_cast<char*>(&n), sizeof(n))) return false;
  if (n > (uint64_t{1} << 32)) return false;
  v->resize(n);
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(v->data()),
              static_cast<std::streamsize>(n * sizeof(double))));
}

bool WriteQueries(const std::string& path, const std::vector<QuerySpec>& q) {
  std::ofstream out(path);
  out.precision(17);
  for (const QuerySpec& s : q) {
    out << s.due_s << ' ' << s.subset.size();
    for (VertexId v : s.subset) out << ' ' << v;
    out << ' ' << s.expected.size();
    for (const egobw::TopKEntry& e : s.expected) {
      out << ' ' << e.vertex << ' ' << e.cb;
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool ReadQueries(const std::string& path, std::vector<QuerySpec>* q) {
  std::ifstream in(path);
  if (!in) return false;
  q->clear();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    QuerySpec s;
    size_t size = 0;
    if (!(fields >> s.due_s >> size)) return false;
    s.subset.resize(size);
    for (VertexId& v : s.subset) {
      if (!(fields >> v)) return false;
    }
    if (!(fields >> size)) return false;
    s.expected.resize(size);
    for (egobw::TopKEntry& e : s.expected) {
      if (!(fields >> e.vertex >> e.cb)) return false;
    }
    q->push_back(std::move(s));
  }
  return true;
}

bool WriteUpdates(const std::string& path, const std::vector<UpdateSpec>& u) {
  std::ofstream out(path);
  for (const UpdateSpec& s : u) {
    out << (s.insert ? 'i' : 'd') << ' ' << s.u << ' ' << s.v << '\n';
  }
  return static_cast<bool>(out);
}

bool ReadUpdates(const std::string& path, std::vector<UpdateSpec>* u) {
  std::ifstream in(path);
  if (!in) return false;
  u->clear();
  char op = 0;
  UpdateSpec s;
  while (in >> op >> s.u >> s.v) {
    if (op != 'i' && op != 'd') return false;
    s.insert = op == 'i';
    u->push_back(s);
  }
  return in.eof();
}

bool WriteCount(const std::string& path, uint64_t value) {
  std::ofstream out(path);
  out << value << '\n';
  return static_cast<bool>(out);
}

bool ReadCount(const std::string& path, uint64_t* value) {
  std::ifstream in(path);
  return static_cast<bool>(in >> *value);
}

// --------------------------------------------------------------- tracing --

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint32_t Tracer::Record(const char* name, Clock::time_point start,
                        Clock::time_point end, uint32_t parent,
                        uint64_t request) {
  if (!enabled_) return kNone;
  spans_.push_back({name, start, end, parent, request});
  return static_cast<uint32_t>(spans_.size() - 1);
}

uint32_t Tracer::Open(const char* name, uint32_t parent, uint64_t request) {
  Clock::time_point now = Clock::now();
  return Record(name, now, now, parent, request);
}

void Tracer::Close(uint32_t id) {
  if (id != kNone) spans_[id].end = Clock::now();
}

double Tracer::Seconds(const Span& s) const {
  return SecondsBetween(s.start, s.end);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(Seconds(s));
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) children[s.parent] += Seconds(s);
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(Seconds(spans_[i]) - children[i]);
  }
  return out;
}

std::vector<std::pair<double, double>> Tracer::ChildTotals(
    const std::string& parent_name, const std::string& child_name) const {
  std::vector<std::pair<double, double>> totals(spans_.size(), {0.0, 0.0});
  for (const Span& s : spans_) {
    if (s.parent == kNone || child_name != s.name) continue;
    totals[s.parent].first += Seconds(s);
    totals[s.parent].second = std::max(totals[s.parent].second, Seconds(s));
  }
  std::vector<std::pair<double, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (parent_name == spans_[i].name) out.push_back(totals[i]);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld, \"request\": %" PRIu64
                 "}\n",
                 i, s.name, SecondsBetween(origin, s.start) * 1e6,
                 SecondsBetween(origin, s.end) * 1e6,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.request);
  }
  return std::fclose(f) == 0;
}

double ScopedSpan::Stop() {
  if (seconds_ < 0.0) {
    seconds_ = SecondsBetween(start_, Clock::now());
    tracer_->Close(id_);
  }
  return seconds_;
}

// ------------------------------------------------------------ statistics --

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------- checks --

bool SameBits(double a, double b) {
  if (a == 0.0) a = 0.0;  // Folds -0.0 to +0.0.
  if (b == 0.0) b = 0.0;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameTopK(const TopKResult& a, const TopKResult& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex || !SameBits(a[i].cb, b[i].cb)) {
      return false;
    }
  }
  return true;
}

TopKResult ReferenceTopK(const std::vector<double>& cb,
                         const std::vector<VertexId>& candidates, uint32_t k) {
  TopKResult out;
  if (candidates.empty()) {
    for (VertexId v = 0; v < cb.size(); ++v) out.push_back({v, cb[v]});
  } else {
    std::vector<VertexId> unique = candidates;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    for (VertexId v : unique) out.push_back({v, cb[v]});
  }
  egobw::FinalizeTopK(&out, k);
  return out;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= kTolerance * std::max(1.0, std::fabs(b));
}

bool CloseTopK(const TopKResult& answer, const TopKResult& reference,
               const std::vector<double>& cb) {
  if (answer.size() != reference.size()) return false;
  for (size_t i = 0; i < answer.size(); ++i) {
    if (answer[i].vertex >= cb.size()) return false;
    if (!Close(answer[i].cb, cb[answer[i].vertex])) return false;
    if (!Close(answer[i].cb, reference[i].cb)) return false;
  }
  return true;
}

// ---------------------------------------------------------------- output --

void ResultLine::Add(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string ResultLine::Json(uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    double v = metrics_[i].second.first;
    if (!std::isfinite(v)) v = 0.0;  // JSON has no inf/nan.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
