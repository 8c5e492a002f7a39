// Shared pieces of the repo benchmark: the workload table, the input files
// the generator writes and the runner reads, span tracing, order
// statistics, answer checks and the JSON result line.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ego_types.h"
#include "graph/graph.h"

namespace perfbench {

using egobw::Graph;
using egobw::TopKResult;
using egobw::VertexId;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- workloads --

/// One benchmark workload. Its content is fixed: the graph, the served
/// query set and the update sequence are generated with the seeds the
/// repo's other benches use, so every run measures the same work. The
/// run's seed varies the order of the light-phase queries and their
/// arrival times.
struct WorkloadSpec {
  const char* name;
  double light_rate;     ///< Light-phase Poisson arrivals per second.
  uint32_t subset_cap;   ///< Max vertices per served community subset.
  uint32_t deadline_ms;  ///< The server's default per-query deadline.
  uint32_t updates;      ///< Size of the update set (half inserts).
  Graph (*make_graph)();
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Names of every workload, for usage messages.
std::string WorkloadNames();

// Constants every workload shares (see perfbench/README.md for why).
inline constexpr uint32_t kTopK = 100;       ///< k of the batch and dyn paths.
inline constexpr double kTheta = 1.05;       ///< Paper default θ.
inline constexpr uint32_t kServeK = 10;      ///< k of every served query.
inline constexpr double kFullGraphFraction = 0.02;
inline constexpr size_t kServeWorkers = 2;
inline constexpr uint32_t kSaturatePool = 2000;  ///< Queries cycled when
                                                 ///< saturating.
inline constexpr double kTolerance = 1e-9;  ///< Relative, cross-evaluator.

/// Shares of --seconds given to the timed phases. The dynamic phase
/// applies the workload's whole update set instead.
inline constexpr double kBatchShare = 0.30;
inline constexpr double kLightShare = 0.35;
inline constexpr double kSaturateShare = 0.10;
/// Slices each phase is cut into; the run goes through them in turn.
inline constexpr size_t kSegments = 3;
/// Setups per batch slice, after the one that readies the paths.
inline constexpr int kSetupRepsPerSegment = 2;

/// Seeds of the fixed workload content: the serving and update benches'
/// query mix and inserted/deleted edges.
inline constexpr uint64_t kMixSeed = 20220514;
inline constexpr uint64_t kInsertSeed = 8801;
inline constexpr uint64_t kDeleteSeed = 8802;

// ----------------------------------------------------------- input files --

/// One served query of the generated schedule.
struct QuerySpec {
  double due_s = 0.0;            ///< Light phase: offset from phase start.
  std::vector<VertexId> subset;  ///< Distinct vertices; empty = whole graph.
  TopKResult expected;           ///< Reference answer.
};

/// One edge update of the generated stream.
struct UpdateSpec {
  bool insert = true;
  VertexId u = 0, v = 0;
};

// File names inside an input directory.
inline constexpr char kEdgeListFile[] = "graph.txt";
inline constexpr char kImageFile[] = "graph.egobw";
inline constexpr char kBatchRefFile[] = "batch_ref_cb.bin";
inline constexpr char kDynRefFile[] = "dyn_ref_cb.bin";
inline constexpr char kServeRefFile[] = "serve_ref_cb.bin";
inline constexpr char kLightFile[] = "light_queries.txt";
inline constexpr char kSaturateFile[] = "saturate_queries.txt";
inline constexpr char kUpdatesFile[] = "updates.txt";
inline constexpr char kOracleFile[] = "oracle_mismatches.txt";

bool WriteDoubles(const std::string& path, const std::vector<double>& v);
bool ReadDoubles(const std::string& path, std::vector<double>* v);
bool WriteQueries(const std::string& path, const std::vector<QuerySpec>& q);
bool ReadQueries(const std::string& path, std::vector<QuerySpec>* q);
bool WriteUpdates(const std::string& path, const std::vector<UpdateSpec>& u);
bool ReadUpdates(const std::string& path, std::vector<UpdateSpec>* u);
bool WriteCount(const std::string& path, uint64_t value);
bool ReadCount(const std::string& path, uint64_t* value);

// --------------------------------------------------------------- tracing --

/// In-memory span recorder. Spans are kept in a vector and written out
/// once, when the run ends; a disabled tracer records nothing.
class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (kNone when disabled).
  uint32_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint32_t parent = kNone,
                  uint64_t request = 0);
  /// Opens a span ending at Close(id).
  uint32_t Open(const char* name, uint32_t parent = kNone,
                uint64_t request = 0);
  void Close(uint32_t id);

  size_t size() const { return spans_.size(); }
  /// Durations of every span named `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const;
  /// Self times (duration minus the child spans' durations) of every span
  /// named `name`, in seconds.
  std::vector<double> SelfTimes(const std::string& name) const;
  /// Per span named `parent_name`: the sum and the maximum of its children
  /// named `child_name`, in seconds.
  std::vector<std::pair<double, double>> ChildTotals(
      const std::string& parent_name, const std::string& child_name) const;
  /// Writes one JSON object per span (times in µs from the first span).
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    uint32_t parent;
    uint64_t request;
  };
  double Seconds(const Span& s) const;

  bool enabled_;
  std::vector<Span> spans_;
};

/// Times a scope, and records it as a span when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name,
             uint32_t parent = Tracer::kNone, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer->Open(name, parent, request)),
        start_(Clock::now()) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }
  /// Ends the span (idempotent) and returns its length in seconds.
  double Stop();

 private:
  Tracer* tracer_;
  uint32_t id_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

double SecondsBetween(Clock::time_point a, Clock::time_point b);
inline Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// ------------------------------------------------------------ statistics --

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double Sum(const std::vector<double>& v);

// ---------------------------------------------------------------- checks --

/// Bit equality with -0.0 folded to +0.0 (the ±0.0 convention for empty
/// egos still differs between engines).
bool SameBits(double a, double b);
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);
/// Entries equal one by one: same vertex, same bits.
bool SameTopK(const TopKResult& a, const TopKResult& b);
/// The canonical top-k (cb desc, id asc) of `candidates` under `cb`
/// (all vertices when `candidates` is empty).
TopKResult ReferenceTopK(const std::vector<double>& cb,
                         const std::vector<VertexId>& candidates, uint32_t k);
/// Checks an answer from an evaluator whose rounding may differ from the
/// reference's: every entry's value is within kTolerance of its vertex's
/// reference value, and the answer's values match the reference top-k's
/// position by position within kTolerance (so ties may permute ids).
bool CloseTopK(const TopKResult& answer, const TopKResult& reference,
               const std::vector<double>& cb);
bool Close(double a, double b);

// ---------------------------------------------------------------- output --

/// The result line: {"correct", "attempted", "failed", "metrics"}.
class ResultLine {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// ----------------------------------------------------------- entry points --

/// Writes the inputs of `spec` for `seed` into `dir` (perfbench gen).
bool Generate(const WorkloadSpec& spec, uint64_t seed, double seconds,
              const std::string& dir);

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::string inputs;     ///< Directory written by Generate.
  double seconds = 10.0;  ///< Measured time, split by the phase shares.
  bool trace = false;
  size_t threads = 1;  ///< Engine threads of the parallel paths.
  size_t clients = 1;  ///< Client connections of the serving phases.
  std::string socket;  ///< AF_UNIX path of the in-process server.
  std::string trace_out;  ///< Span file of a traced run ("" = none).
};

/// The timed run (perfbench run); prints the result line. Returns the
/// process exit code.
int Run(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
