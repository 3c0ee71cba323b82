// vecube repo benchmark: two timed closed-loop workloads driven through
// the public API the way users call it, plus a traced run that re-enacts
// their operations, and those of a third, write-bearing workload, through
// the modules' public functions and attributes the time to layers.
//
//   cube_cold     1 client. One op is one whole CUBE cycle (Gray et al.):
//                 OlapSession::OpenDurable, ViewByMask for all 2^d
//                 group-bys, close.
//   serve_hot     nproc clients, one ElementServer + AssemblyEngine each,
//                 sharing one ViewCache and one AdmissionController.
//                 Zipf(1.1) over the group-bys, cache warmed.
//   ingest_mixed  traced only: 1 client on a cached durable store. Each
//                 10-op cycle is 1 AddFact, 5 Element reads, 4 RangeSum.
//
// Every answer class is checked against an independent reference (the
// step-at-a-time transform oracle, brute-force range sums, the serving
// accounting identity). The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it holds
// the environment record and run details. Build and run through run.py;
// README.md beside this file describes the workloads and metrics.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/computer.h"
#include "core/io.h"
#include "core/update.h"
#include "core/wal.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "haar/fused.h"
#include "haar/scratch.h"
#include "haar/transform.h"
#include "range/range.h"
#include "range/range_engine.h"
#include "select/algorithm1.h"
#include "serve/admission.h"
#include "serve/serving.h"
#include "serve/view_cache.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/population.h"

namespace {

namespace fs = std::filesystem;

using vecube::AdmissionController;
using vecube::AdmissionOptions;
using vecube::AssemblyEngine;
using vecube::CellDelta;
using vecube::CubeShape;
using vecube::ElementId;
using vecube::ElementServer;
using vecube::ElementStore;
using vecube::OlapSession;
using vecube::OlapSessionOptions;
using vecube::OpCounter;
using vecube::QueryAnswer;
using vecube::QueryPopulation;
using vecube::RangeEngine;
using vecube::RangeQueryStats;
using vecube::RangeSpec;
using vecube::Result;
using vecube::Rng;
using vecube::ScratchArena;
using vecube::ServeMetrics;
using vecube::Status;
using vecube::Tensor;
using vecube::ThreadPool;
using vecube::ViewCache;
using vecube::ViewCacheOptions;
using vecube::WriteAheadLog;

// File names OlapSession keeps inside its durability directory.
constexpr char kStoreFile[] = "store.vecube";
constexpr char kCubeFile[] = "cube.vecube";
constexpr char kWalFile[] = "wal.log";

constexpr double kZipfSkew = 1.1;
// The query population is drawn from this fixed seed, not from --seed, so
// the stored set and the CUBE's plan cost are the same in every run;
// --seed draws the facts and the query sequences.
constexpr uint64_t kPopulationSeed = 7;
constexpr uint32_t kCycleOps = 10;        // ingest_mixed: W + 5 E + 4 R
constexpr uint32_t kCycleReads = 5;
constexpr uint32_t kCycleRanges = 4;
constexpr uint32_t kServeCheckEvery = 64;  // serve_hot answer sampling
constexpr uint32_t kRangeCheckEvery = 4;   // ingest_mixed RangeSum sampling
constexpr uint64_t kServeWarmOps = 1000;   // per client, before timing
constexpr size_t kServeSeqLen = size_t{1} << 16;  // per client, cycled
constexpr size_t kIngestRing = size_t{1} << 12;   // cycles, reused in order
constexpr uint32_t kHaarProbeReps = 50;
constexpr double kTracedWarmSeconds = 0.5;  // ingest_mixed traced phases

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    Fatal(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

bool SameBits(const Tensor& got, const Tensor& want) {
  return got.extents() == want.extents() &&
         std::memcmp(got.raw(), want.raw(), got.size() * sizeof(double)) == 0;
}

/// Where `got` first departs from the oracle's `want`.
std::string Mismatch(const Tensor& got, const Tensor& want) {
  std::string out = "got " + got.ShapeString() + ", oracle " +
                    want.ShapeString();
  for (uint64_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) {
      return out + ", cell " + std::to_string(i) + ": " +
             std::to_string(got[i]) + " vs " + std::to_string(want[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Latency and percentile bookkeeping.

/// Nearest-rank position of the median of n samples (1-based).
uint64_t MedianRank(uint64_t n) { return (n + 1) / 2; }

/// The tail rule: p99 when a run has at least 1000 samples; otherwise the
/// highest percentile with at least ten samples beyond it. Below 21
/// samples no percentile above the median has ten beyond it, and the tail
/// reads as the median.
struct TailRank {
  uint64_t rank = 0;
  double percentile = 0.0;
};

TailRank Tail(uint64_t n) {
  TailRank t;
  if (n == 0) return t;
  if (n >= 1000) {
    t.rank = (99 * n + 99) / 100;
  } else {
    t.rank = n > 10 ? std::max(n - 10, MedianRank(n)) : MedianRank(n);
  }
  t.percentile = 100.0 * static_cast<double>(t.rank) / static_cast<double>(n);
  return t;
}

/// Every op's latency at 1 ns resolution: a dense histogram below
/// kDenseNs and exact values above it, so percentiles over millions of
/// hot-path ops cost a few hundred KB.
class LatencyLog {
 public:
  static constexpr int64_t kDenseNs = int64_t{1} << 17;

  LatencyLog() : dense_(kDenseNs, 0) {}

  void Add(int64_t ns) {
    ns = std::max<int64_t>(ns, 0);
    if (ns < kDenseNs) {
      ++dense_[static_cast<size_t>(ns)];
    } else {
      sparse_.push_back(ns);
    }
    ++count_;
  }

  void Merge(const LatencyLog& other) {
    for (size_t i = 0; i < dense_.size(); ++i) dense_[i] += other.dense_[i];
    sparse_.insert(sparse_.end(), other.sparse_.begin(), other.sparse_.end());
    count_ += other.count_;
  }

  [[nodiscard]] uint64_t count() const { return count_; }

  /// The rank-th smallest sample (1-based), in nanoseconds.
  int64_t AtRank(uint64_t rank) {
    if (count_ == 0 || rank == 0) return 0;
    uint64_t seen = 0;
    for (size_t ns = 0; ns < dense_.size(); ++ns) {
      seen += dense_[ns];
      if (seen >= rank) return static_cast<int64_t>(ns);
    }
    std::sort(sparse_.begin(), sparse_.end());
    return sparse_[rank - seen - 1];
  }

 private:
  std::vector<uint32_t> dense_;
  std::vector<int64_t> sparse_;
  uint64_t count_ = 0;
};

/// Nearest-rank value of an unsorted sample vector.
double AtRank(std::vector<double> values, uint64_t rank) {
  if (values.empty() || rank == 0) return 0.0;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Median of a latency log, in milliseconds.
double MedianMs(LatencyLog* log) {
  return static_cast<double>(log->AtRank(MedianRank(log->count()))) / 1e6;
}

double Median(const std::vector<double>& values) {
  return AtRank(values, MedianRank(values.size()));
}

double TailOf(const std::vector<double>& values) {
  return AtRank(values, Tail(values.size()).rank);
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around calls into each layer.

enum Layer : uint16_t {
  kCubeCycle,
  kApiOpen,
  kIoLoad,
  kPoolInit,
  kAssemblyInit,
  kRangeInit,
  kPlan,
  kExec,
  kApiClose,
  kServeQuery,
  kAdmit,
  kLookup,
  kCopy,
  kUnpin,
  kAdmitRelease,
  kServeFill,
  kAddFact,
  kWalAppend,
  kUpdateApply,
  kInvalidate,
  kElement,
  kPlanCost,
  kFill,
  kCompleteFill,
  kRangeQuery,
  kRangeSum,
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "cube_cold.cycle",        "api.open",
    "core.io.load",           "util.pool.init",
    "core.assembly.init",     "range.init",
    "core.assembly.plan",     "core.assembly.exec",
    "api.close",              "serve_hot.query",
    "serve.admission.admit",  "serve.cache.lookup",
    "cube.tensor.copy",       "serve.cache.unpin",
    "serve.admission.release", "serve.fill",
    "ingest.add_fact",        "core.wal.append",
    "core.update.apply",      "serve.cache.invalidate",
    "ingest.element",         "core.assembly.plan_cost",
    "core.assembly.fill",     "serve.cache.complete_fill",
    "ingest.range_sum",       "range.range_sum",
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;
  int32_t parent = -1;
  Layer layer = kNumLayers;
};

/// Per-thread span buffer with fixed capacity: a traced loop stops once it
/// is nearly full, so recording never reallocates inside an op.
class Tracer {
 public:
  Tracer(std::string label, size_t capacity) : label_(std::move(label)) {
    spans_.reserve(capacity);
  }

  [[nodiscard]] bool Full() const {
    return spans_.size() + kHeadroom > spans_.capacity();
  }

  /// Opens a span under the currently open one; a root span carries `op`,
  /// children inherit their root's op id.
  int32_t Begin(Layer layer, uint64_t op, int64_t ts) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    if (open_ >= 0) op = spans_[static_cast<size_t>(open_)].op;
    spans_.push_back(Span{ts, 0, op, open_, layer});
    open_ = id;
    return id;
  }

  int64_t End(int32_t id, int64_t ts) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = ts;
    open_ = span.parent;
    return ts;
  }

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr size_t kHeadroom = 64;
  std::string label_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// RAII span for coarse (millisecond) layers.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, uint64_t op = 0)
      : tracer_(tracer), id_(tracer->Begin(layer, op, NowNs())) {}
  ~Scope() { tracer_->End(id_, NowNs()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// One op traced as a gapless chain of layer spans: each Step() closes
/// the previous child and opens the next at the same clock reading, so
/// the op's blocking path is covered end to end even for sub-microsecond
/// ops (the tracing cost lands in the spans and shows in trace.overhead).
class Chain {
 public:
  Chain(Tracer* tracer, Layer root, uint64_t op)
      : tracer_(tracer), ts_(NowNs()) {
    root_ = tracer_->Begin(root, op, ts_);
  }
  ~Chain() {
    if (child_ >= 0) ts_ = tracer_->End(child_, NowNs());
    tracer_->End(root_, ts_);
  }
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  void Step(Layer layer) {
    if (child_ >= 0) ts_ = tracer_->End(child_, NowNs());
    child_ = tracer_->Begin(layer, 0, ts_);
  }

 private:
  Tracer* tracer_;
  int64_t ts_;
  int32_t root_ = -1;
  int32_t child_ = -1;
};

/// Owns every tracer of the process; spans stay in memory and are written
/// out once, at exit.
class TraceLog {
 public:
  Tracer* New(std::string label, size_t capacity) {
    tracers_.push_back(std::make_unique<Tracer>(std::move(label), capacity));
    return tracers_.back().get();
  }

  void WriteCsv(const std::string& path) const {
    std::ofstream out(path);
    out << "tracer,op,span,parent,layer,start_ns,end_ns\n";
    for (const auto& tracer : tracers_) {
      const std::vector<Span>& spans = tracer->spans();
      for (size_t i = 0; i < spans.size(); ++i) {
        out << tracer->label() << ',' << spans[i].op << ',' << i << ','
            << spans[i].parent << ',' << kLayerNames[spans[i].layer] << ','
            << spans[i].start_ns << ',' << spans[i].end_ns << '\n';
      }
    }
  }

 private:
  std::vector<std::unique_ptr<Tracer>> tracers_;
};

/// Durations and self times by layer over a set of tracers. A span's self
/// time is its duration minus its children's (children never overlap:
/// each tracer belongs to one thread).
struct LayerStats {
  std::array<std::vector<double>, kNumLayers> ns;
  std::array<double, kNumLayers> self_ns{};
  std::vector<double> coverage;  // per op: child time / op time
  double op_ns = 0.0;
  uint64_t ops = 0;

  void Add(const Tracer& tracer) {
    const std::vector<Span>& spans = tracer.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      ns[spans[i].layer].push_back(dur);
      self_ns[spans[i].layer] += dur - child[i];
      if (spans[i].parent < 0) {
        coverage.push_back(dur > 0.0 ? child[i] / dur : 1.0);
        op_ns += dur;
        ++ops;
      }
    }
  }

  [[nodiscard]] double P50(Layer layer, double unit_ns) const {
    return Median(ns[layer]) / unit_ns;
  }
  [[nodiscard]] double TailV(Layer layer, double unit_ns) const {
    return TailOf(ns[layer]) / unit_ns;
  }
};

// ---------------------------------------------------------------------------
// Run configuration, inputs and outcome.

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool inject_wrong_answer = false;
  std::string run_dir = "perfbench-run";
  uint32_t extent = 16;
  uint32_t ndim = 4;
  uint32_t setup_reps = 9;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload's timed or traced ops.
struct Tally {
  LatencyLog latency;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  double seconds = 0.0;
  bool correct = true;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
  void Merge(Tally&& other) {
    latency.Merge(other.latency);
    attempted += other.attempted;
    ok += other.ok;
    shed += other.shed;
    if (!other.correct) correct = false;
    for (std::string& e : other.errors) {
      if (errors.size() < 8) errors.push_back(std::move(e));
    }
  }
};

std::string Errors(const Tally& tally) {
  std::string out;
  for (const std::string& e : tally.errors) {
    out += (out.empty() ? "" : "; ") + e;
  }
  return out;
}

/// Corrupts the first answer checked after Arm() — the self-test's proof
/// that a wrong answer fails the run. Armed only once set-up is done, so
/// the corruption lands in a measured op.
class Injector {
 public:
  void Arm() {
    // order: relaxed — armed before the client threads start.
    armed_.store(true, std::memory_order_relaxed);
  }
  void Corrupt(Tensor* answer) {
    if (answer->size() > 0 && Take()) (*answer)[0] += 1.0;
  }
  void Corrupt(double* answer) {
    if (Take()) *answer += 1.0;
  }

 private:
  bool Take() {
    // order: relaxed — a one-shot flag; no data is published through it.
    return armed_.exchange(false, std::memory_order_relaxed);
  }
  std::atomic<bool> armed_{false};
};

/// Everything generated from the seed before any timing starts.
struct Inputs {
  CubeShape shape;
  std::vector<uint32_t> extents;
  std::vector<double> facts;       // one integer fact per cell
  std::vector<ElementId> views;    // indexed by mask
  std::vector<Tensor> reference;   // oracle answers over `facts`, by mask
  QueryPopulation population;      // Zipf(kZipfSkew) over the group-bys

  [[nodiscard]] uint32_t num_views() const {
    return static_cast<uint32_t>(views.size());
  }
  /// The group-by mask of one query drawn from the population.
  uint32_t SampleMask(Rng* rng) const {
    const ElementId& view = population.Sample(rng);
    return static_cast<uint32_t>(
        std::find(views.begin(), views.end(), view) - views.begin());
  }
  Tensor Cube() const {
    return Must(Tensor::FromData(extents, facts), "cube from facts");
  }
};

/// A group-by aggregated step at a time by the P1 kernel (Eq. 1): the
/// independent oracle every assembled view is compared against.
Tensor OracleView(const Tensor& cube, uint32_t mask) {
  Tensor view = cube;
  for (uint32_t m = 0; m < cube.ndim(); ++m) {
    if (((mask >> m) & 1u) == 0) continue;
    while (view.extent(m) > 1) {
      view = Must(vecube::PartialSum(view, m), "oracle PartialSum");
    }
  }
  return view;
}

Inputs MakeInputs(const Config& cfg) {
  Inputs in;
  in.shape = Must(CubeShape::MakeSquare(cfg.ndim, cfg.extent), "shape");
  in.extents = in.shape.extents();
  Rng rng(cfg.seed);
  in.facts.resize(in.shape.volume());
  for (double& f : in.facts) {
    f = static_cast<double>(static_cast<int64_t>(rng.UniformU64(19)) - 9);
  }
  const uint32_t views = 1u << cfg.ndim;
  for (uint32_t mask = 0; mask < views; ++mask) {
    in.views.push_back(
        Must(ElementId::AggregatedView(mask, in.shape), "aggregated view"));
  }
  Rng population_rng(kPopulationSeed);
  in.population = Must(
      vecube::ZipfViewPopulation(in.shape, &population_rng, kZipfSkew),
      "Zipf population");
  const Tensor cube = in.Cube();
  for (uint32_t mask = 0; mask < views; ++mask) {
    in.reference.push_back(OracleView(cube, mask));
  }
  return in;
}

std::vector<uint32_t> RandomCell(const Inputs& in, Rng* rng) {
  std::vector<uint32_t> coords(in.extents.size());
  for (size_t m = 0; m < coords.size(); ++m) {
    coords[m] = static_cast<uint32_t>(rng->UniformU64(in.extents[m]));
  }
  return coords;
}

/// A nonzero integer amount in [-9, 9].
double RandomAmount(Rng* rng) {
  const int64_t v = static_cast<int64_t>(rng->UniformU64(18)) - 9;
  return static_cast<double>(v >= 0 ? v + 1 : v);
}

RangeSpec RandomBox(const Inputs& in, Rng* rng) {
  std::vector<uint32_t> start(in.extents.size());
  std::vector<uint32_t> width(in.extents.size());
  for (size_t m = 0; m < start.size(); ++m) {
    start[m] = static_cast<uint32_t>(rng->UniformU64(in.extents[m]));
    width[m] = 1 + static_cast<uint32_t>(
                       rng->UniformU64(in.extents[m] - start[m]));
  }
  return Must(RangeSpec::Make(std::move(start), std::move(width), in.shape),
              "range box");
}

/// Brute-force sum of the cube cells inside `box`.
double BruteForceSum(const Tensor& cube, const RangeSpec& box) {
  const uint32_t d = box.ndim();
  std::vector<uint32_t> at = box.start;
  double sum = 0.0;
  for (;;) {
    sum += cube[cube.FlatIndex(at)];
    uint32_t m = d;
    while (m-- > 0) {
      if (++at[m] < box.start[m] + box.width[m]) break;
      at[m] = box.start[m];
    }
    if (m == static_cast<uint32_t>(-1)) return sum;
  }
}

/// The WAL flush policy. Appends are written to the log file but not
/// fsynced: the benchmark may only write inside its checkout, and a fsync
/// there is a round trip to a shared disk whose latency (0.30-0.51 ms per
/// AddFact between runs) would set the write numbers. Checkpoints still
/// fsync.
constexpr bool kSyncEachAppend = false;
constexpr char kFlushPolicy[] =
    "sync_each_append=false: WAL appends written, not fsynced; "
    "checkpoints fsync";

OlapSessionOptions DurableOptions(const std::string& dir, bool cache) {
  OlapSessionOptions options;  // num_threads = 0, num_shards = 0
  options.durability.enabled = true;
  options.durability.directory = dir;
  options.durability.sync_each_append = kSyncEachAppend;
  options.view_cache.enabled = cache;
  return options;
}

/// Cube build, DeclareWorkload, Optimize — which checkpoints the store
/// into `dir`.
std::unique_ptr<OlapSession> BuildStore(const Inputs& in,
                                        const std::string& dir, bool cache) {
  std::unique_ptr<OlapSession> session =
      Must(OlapSession::FromCube(in.shape, in.Cube(),
                                 DurableOptions(dir, cache)),
           "FromCube");
  MustOk(session->DeclareWorkload(in.population), "DeclareWorkload");
  MustOk(session->Optimize(), "Optimize");
  return session;
}

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  if (ec) Fatal("cannot create " + path + ": " + ec.message());
  return path;
}

std::string Join(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

/// Heap bytes in use (malloc arenas plus mmapped chunks). The engine
/// constructor writes every memo byte it allocates, so its heap growth is
/// what it makes resident when the memory is new to the process. RSS
/// itself does not move from the second cycle on: glibc hands the
/// constructor the memory the previous cycle's engine freed, which is
/// already resident.
double HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

struct Env {
  const Config& cfg;
  const Inputs& in;
  TraceLog& traces;
  Injector& inject;
};

/// Per-layer result of one workload's traced phase.
struct TracedResult {
  std::vector<Metric> metrics;
  double ops_s = 0.0;  // traced throughput, the base of trace.overhead
  std::map<std::string, double> details;
};

void AddLatency(std::vector<Metric>* out, const std::string& name,
                const LayerStats& stats, Layer layer, const char* unit) {
  const double unit_ns = std::strcmp(unit, "ms") == 0 ? 1e6 : 1e3;
  out->push_back({name + ".p50", stats.P50(layer, unit_ns), unit});
  out->push_back({name + ".tail", stats.TailV(layer, unit_ns), unit});
}

/// Self-time share of each layer along the traced ops' blocking paths.
void AddShares(const LayerStats& stats, const std::string& prefix,
               std::map<std::string, double>* details) {
  (*details)[prefix + ".coverage_p50"] = Median(stats.coverage);
  (*details)[prefix + ".coverage_min"] =
      stats.coverage.empty()
          ? 0.0
          : *std::min_element(stats.coverage.begin(), stats.coverage.end());
  for (uint32_t l = 0; l < kNumLayers; ++l) {
    if (stats.ns[l].empty() || stats.op_ns <= 0.0) continue;
    (*details)[prefix + ".self_share." + kLayerNames[l]] =
        stats.self_ns[l] / stats.op_ns;
  }
}

/// A workload's traced phase: what every traced run drives.
class Workload {
 public:
  explicit Workload(const Env& env) : env_(env), in_(env.in) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds, checkpoints and warms the store in `dir`: the timed set-up.
  virtual void Setup(const std::string& dir) = 0;
  /// The same inputs through the modules' public functions, with spans.
  virtual void RunTraced(double seconds, Tally* tally, TracedResult* out) = 0;
  /// End-of-run answer checks.
  virtual void Finish(Tally* /*tally*/) {}

 protected:
  const Env& env_;
  const Inputs& in_;
};

/// A workload that also has an untraced timed region, selectable with
/// --workload.
class TimedWorkload : public Workload {
 public:
  using Workload::Workload;
  /// The untraced timed region: closed-loop ops for `seconds`.
  virtual void Run(double seconds, Tally* tally) = 0;
};

// ---------------------------------------------------------------------------
// cube_cold: open the durable store, answer the whole CUBE, close.

class CubeCold final : public TimedWorkload {
 public:
  explicit CubeCold(const Env& env)
      : TimedWorkload(env), answers_(env.in.num_views()) {}

  void Setup(const std::string& dir) override {
    dir_ = dir;
    stored_ = BuildStore(in_, dir, /*cache=*/false)->store().size();
    Tally warm;
    Op(&warm);  // one whole cycle, also warming the snapshot's page cache
    if (!warm.correct || warm.ok != 1) {
      Fatal("cube_cold warm-up failed: " + Errors(warm));
    }
  }

  void Run(double seconds, Tally* tally) override {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    do {
      Op(tally);
    } while (NowNs() < end);
    tally->seconds = static_cast<double>(NowNs() - start) / 1e9;
  }

  void RunTraced(double seconds, Tally* tally, TracedResult* out) override {
    Tracer* tracer = env_.traces.New("cube_cold", size_t{1} << 12);
    std::vector<double> init_rss_mb;
    uint64_t plan_cost = 0;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    uint64_t op = 0;
    do {
      ++op;
      uint64_t cost = 0;
      double rss_mb = 0.0;
      const bool ok = TracedCycle(tracer, op, &cost, &rss_mb);
      init_rss_mb.push_back(rss_mb);
      if (op == 1) plan_cost = cost;
      if (cost != plan_cost) {
        tally->Fail("Procedure-3 plan cost changed between cycles");
      }
      Check(ok, tally);
    } while (NowNs() < end && !tracer->Full());
    tally->seconds = static_cast<double>(NowNs() - start) / 1e9;
    out->ops_s = static_cast<double>(op) / tally->seconds;

    LayerStats stats;
    stats.Add(*tracer);
    AddLatency(&out->metrics, "api.open_ms", stats, kApiOpen, "ms");
    AddLatency(&out->metrics, "core.io.load_ms", stats, kIoLoad, "ms");
    AddLatency(&out->metrics, "core.assembly.init_ms", stats, kAssemblyInit,
               "ms");
    out->metrics.push_back(
        {"core.assembly.init_rss_mb", Median(init_rss_mb), "MB"});
    AddLatency(&out->metrics, "core.assembly.plan_ms", stats, kPlan, "ms");
    AddLatency(&out->metrics, "core.assembly.exec_ms", stats, kExec, "ms");
    out->metrics.push_back({"core.assembly.plan_cost_ops",
                            static_cast<double>(plan_cost), "count"});
    AddShares(stats, "cube_cold", &out->details);
    out->details["cube_cold.stored_elements"] = static_cast<double>(stored_);
  }

 private:
  /// One CUBE cycle through the public API; the session closes before
  /// returning, inside the op.
  bool Cycle() {
    Result<std::unique_ptr<OlapSession>> session =
        OlapSession::OpenDurable(DurableOptions(dir_, false));
    if (!session.ok()) return false;
    for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
      Result<Tensor> view = (*session)->ViewByMask(mask);
      if (!view.ok()) return false;
      answers_[mask] = std::move(view).value();
    }
    return true;
  }

  void Op(Tally* tally) {
    const int64_t t0 = NowNs();
    const bool ok = Cycle();
    tally->latency.Add(NowNs() - t0);
    Check(ok, tally);
  }

  void Check(bool ok, Tally* tally) {
    ++tally->attempted;
    if (!ok) {
      tally->Fail("cube_cold cycle returned an error");
      return;
    }
    for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
      env_.inject.Corrupt(&answers_[mask]);
      if (!SameBits(answers_[mask], in_.reference[mask])) {
        tally->Fail("cube_cold view " + std::to_string(mask) + ": " +
                    Mismatch(answers_[mask], in_.reference[mask]));
        return;
      }
    }
    ++tally->ok;
  }

  /// The cycle re-enacted from the modules' public functions — what
  /// OpenDurable, ViewByMask and the session's destructor do — so each
  /// part gets its own span.
  bool TracedCycle(Tracer* tracer, uint64_t op, uint64_t* plan_cost,
                   double* rss_mb) {
    Scope cycle(tracer, kCubeCycle, op);
    std::optional<ElementStore> store;
    std::optional<ElementStore> cube_store;
    std::unique_ptr<ThreadPool> pool;
    ScratchArena arena;
    std::unique_ptr<AssemblyEngine> engine;
    std::unique_ptr<RangeEngine> range;
    {
      Scope open(tracer, kApiOpen);
      {
        Scope load(tracer, kIoLoad);
        vecube::SnapshotReport report;
        Result<ElementStore> loaded =
            vecube::LoadStoreV2(Join(dir_, kStoreFile), &report);
        Result<ElementStore> cube =
            vecube::LoadStoreV2(Join(dir_, kCubeFile), &report);
        Result<vecube::WalScan> scan =
            WriteAheadLog::Scan(Join(dir_, kWalFile), in_.shape);
        if (!loaded.ok() || !cube.ok() || !scan.ok()) return false;
        store.emplace(std::move(loaded).value());
        cube_store.emplace(std::move(cube).value());
      }
      {
        Scope init(tracer, kPoolInit);
        const uint32_t lanes = ThreadPool::DefaultThreadCount();
        if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);
      }
      const double heap_before = HeapBytes();
      {
        Scope init(tracer, kAssemblyInit);
        engine = std::make_unique<AssemblyEngine>(&*store, pool.get(), &arena);
      }
      *rss_mb = (HeapBytes() - heap_before) / (1024.0 * 1024.0);
      {
        Scope init(tracer, kRangeInit);
        range = std::make_unique<RangeEngine>(
            &*store, vecube::MissingElementPolicy::kAssemble, pool.get(),
            nullptr, &arena);
      }
    }
    {
      Scope plan(tracer, kPlan);
      for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
        *plan_cost += engine->PlanCost(in_.views[mask]);
      }
    }
    bool ok = true;
    {
      Scope exec(tracer, kExec);
      for (uint32_t mask = 0; mask < in_.num_views() && ok; ++mask) {
        Result<Tensor> view = engine->Assemble(in_.views[mask]);
        ok = view.ok();
        if (ok) answers_[mask] = std::move(view).value();
      }
    }
    {
      Scope close(tracer, kApiClose);
      range.reset();
      engine.reset();
      pool.reset();
      store.reset();
      cube_store.reset();
    }
    return ok;
  }

  std::string dir_;
  size_t stored_ = 0;
  std::vector<Tensor> answers_;
};

// ---------------------------------------------------------------------------
// serve_hot: concurrent closed-loop clients on the warmed hit path.

class ServeHot final : public TimedWorkload {
 public:
  explicit ServeHot(const Env& env, uint32_t clients)
      : TimedWorkload(env), clients_(clients), costs_(env.in.num_views(), 0) {
    Rng rng(env.cfg.seed ^ 0x5345525645ull);
    seqs_.resize(clients_);
    for (std::vector<uint8_t>& seq : seqs_) {
      seq.resize(kServeSeqLen);
      for (uint8_t& q : seq) q = static_cast<uint8_t>(in_.SampleMask(&rng));
    }
  }

  void Setup(const std::string& dir) override {
    session_ = BuildStore(in_, dir, /*cache=*/false);
    store_ = &session_->store();
    ViewCacheOptions cache_options;
    cache_options.enabled = true;
    cache_ = std::make_unique<ViewCache>(cache_options);
    AdmissionOptions admission_options;
    admission_options.max_inflight = clients_;
    admission_ = std::make_unique<AdmissionController>(admission_options);
    served_.assign(in_.num_views(), 0);
    for (uint32_t c = 0; c < clients_; ++c) {
      engines_.push_back(std::make_unique<AssemblyEngine>(store_));
      servers_.push_back(std::make_unique<ElementServer>(
          engines_.back().get(), store_, cache_.get()));
    }
    for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
      costs_[mask] = engines_[0]->PlanCost(in_.views[mask]);
    }
    // Warm the cache with every group-by, then each client's code path.
    Tally warm;
    Tensor answer;
    for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
      ServeOne(0, mask, /*check=*/true, &answer, &warm, served_.data());
    }
    for (uint32_t c = 0; c < clients_; ++c) {
      for (uint64_t i = 0; i < kServeWarmOps; ++i) {
        ServeOne(c, seqs_[c][i], i % kServeCheckEvery == 0, &answer, &warm,
                 served_.data());
      }
    }
    if (!warm.correct || warm.ok != warm.attempted) {
      Fatal("serve_hot warm-up failed: " + Errors(warm));
    }
  }

  void Run(double seconds, Tally* tally) override {
    RunClients(clients_, seconds, tally, nullptr);
  }

  void RunTraced(double seconds, Tally* tally, TracedResult* out) override {
    const ServeMetrics before = cache_->Metrics();
    const uint64_t shed_before = admission_->Metrics().shed;
    LayerStats one;
    LayerStats many;
    Tally one_tally;
    RunClients(1, seconds / 2, &one_tally, &one);
    Tally many_tally;
    RunClients(clients_, seconds / 2, &many_tally, &many);
    out->ops_s = static_cast<double>(many_tally.attempted) / many_tally.seconds;
    tally->Merge(std::move(one_tally));
    tally->Merge(std::move(many_tally));
    const ServeMetrics after = cache_->Metrics();

    AddLatency(&out->metrics, "serve.admission.admit_us", many, kAdmit, "us");
    out->metrics.push_back(
        {"serve.admission.shed",
         static_cast<double>(admission_->Metrics().shed - shed_before),
         "count"});
    AddLatency(&out->metrics, "serve.cache.lookup_us", many, kLookup, "us");
    out->metrics.push_back({"serve.cache.contention_x",
                            many.P50(kLookup, 1.0) / one.P50(kLookup, 1.0),
                            "ratio"});
    AddLatency(&out->metrics, "cube.tensor.copy_us", many, kCopy, "us");
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    out->metrics.push_back(
        {"serve.cache.hit_rate", hits / std::max(1.0, hits + misses), "ratio"});
    AddShares(many, "serve_hot", &out->details);
    out->details["serve_hot.clients"] = clients_;
  }

  void Finish(Tally* tally) override {
    // Serving accounting identity: every query either paid its
    // Procedure-3 plan cost (leader fill) or saved it (hit).
    const ServeMetrics metrics = cache_->Metrics();
    uint64_t expected = 0;
    for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
      expected += costs_[mask] * served_[mask];
    }
    if (metrics.assembly_ops_saved + metrics.assembly_ops_executed !=
        expected) {
      tally->Fail("serve_hot: ops_saved + ops_executed != sum of PlanCost");
    }
  }

 private:
  /// One query as users send it: admission, ElementServer, release.
  /// `answer`, `tally` and `served` belong to the calling client.
  bool ServeOne(uint32_t client, uint32_t mask, bool check, Tensor* answer,
                Tally* tally, uint64_t* served) {
    bool ok = false;
    const int64_t t0 = NowNs();
    {
      Result<AdmissionController::Permit> permit = admission_->Admit();
      if (permit.ok()) {
        Result<QueryAnswer> served_answer =
            servers_[client]->Serve(in_.views[mask]);
        ++served[mask];
        ok = served_answer.ok();
        if (ok) *answer = std::move(served_answer->data);
      } else {
        ++tally->shed;
      }
    }
    tally->latency.Add(NowNs() - t0);
    return Account(mask, ok, check, *answer, tally);
  }

  /// The same query re-enacted from the serve layer's parts.
  bool ServeTraced(uint32_t client, uint32_t mask, bool check,
                   Tensor* answer, Tally* tally, uint64_t* served,
                   Tracer* tracer, uint64_t op) {
    bool ok = false;
    {
      Chain chain(tracer, kServeQuery, op);
      chain.Step(kAdmit);
      Result<AdmissionController::Permit> permit = admission_->Admit();
      if (permit.ok()) {
        chain.Step(kLookup);
        ViewCache::LookupOutcome outcome =
            cache_->LookupOrBegin(in_.views[mask]);
        ++served[mask];
        if (outcome.hit) {
          chain.Step(kCopy);
          *answer = *outcome.hit;
          chain.Step(kUnpin);
          outcome.hit = ViewCache::ReadHandle();
          ok = true;
        } else {
          chain.Step(kServeFill);
          ok = Fill(client, mask, std::move(outcome.fill), answer);
        }
        chain.Step(kAdmitRelease);
        permit->Release();
      } else {
        ++tally->shed;
      }
    }
    return Account(mask, ok, check, *answer, tally);
  }

  /// Miss path of a traced query (not expected once the cache is warm).
  bool Fill(uint32_t client, uint32_t mask, ViewCache::FillTicket ticket,
            Tensor* answer) {
    const ElementId& view = in_.views[mask];
    if (!ticket.leader()) {
      ViewCache::FillWait wait = cache_->WaitFill(ticket);
      if (!wait.status.ok()) return false;
      *answer = *wait.data;
      return true;
    }
    AssemblyEngine& engine = *engines_[client];
    const uint64_t cost = engine.PlanCost(view);
    Result<Tensor> data = engine.Assemble(view);
    if (!data.ok()) {
      cache_->AbortFill(std::move(ticket), data.status());
      return false;
    }
    *answer =
        *cache_->CompleteFill(std::move(ticket), std::move(data).value(), cost);
    return true;
  }

  bool Account(uint32_t mask, bool ok, bool check, Tensor& answer,
               Tally* tally) {
    ++tally->attempted;
    if (ok && check) {
      env_.inject.Corrupt(&answer);
      if (!SameBits(answer, in_.reference[mask])) {
        tally->Fail("serve_hot view " + std::to_string(mask) + ": " +
                    Mismatch(answer, in_.reference[mask]));
        ok = false;
      }
    }
    if (ok) ++tally->ok;
    return ok;
  }

  /// `clients` closed-loop threads behind a start latch for `seconds`;
  /// traced when `stats` is given.
  void RunClients(uint32_t clients, double seconds, Tally* tally,
                  LayerStats* stats) {
    std::vector<Tally> tallies(clients);
    std::vector<std::vector<uint64_t>> served(clients);
    std::vector<int64_t> ends(clients, 0);
    std::vector<Tracer*> tracers(clients, nullptr);
    if (stats != nullptr) {
      for (uint32_t c = 0; c < clients; ++c) {
        tracers[c] = env_.traces.New(
            "serve_hot.c" + std::to_string(c) + "of" + std::to_string(clients),
            size_t{1} << 16);
      }
    }
    std::atomic<uint32_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<int64_t> deadline{0};
    {
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (uint32_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
          // Everything a client writes per op lives in its own thread, so
          // clients share no cache line the system under test does not.
          const std::vector<uint8_t>& seq = seqs_[c];
          Tally mine;
          std::vector<uint64_t> counts(in_.num_views(), 0);
          Tensor answer;
          // order: acq_rel/acquire — the latch publishes `deadline`.
          ready.fetch_add(1, std::memory_order_acq_rel);
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          const int64_t until = deadline.load(std::memory_order_acquire);
          for (uint64_t i = kServeWarmOps;; ++i) {
            const uint32_t mask = seq[i & (kServeSeqLen - 1)];
            const bool check = i % kServeCheckEvery == 0;
            if (tracers[c] == nullptr) {
              ServeOne(c, mask, check, &answer, &mine, counts.data());
            } else {
              if (tracers[c]->Full()) break;
              ServeTraced(c, mask, check, &answer, &mine, counts.data(),
                          tracers[c], i);
            }
            if (NowNs() >= until) break;
          }
          ends[c] = NowNs();
          tallies[c] = std::move(mine);
          served[c] = std::move(counts);
        });
      }
      while (ready.load(std::memory_order_acquire) < clients) {
        std::this_thread::yield();
      }
      const int64_t start = NowNs();
      deadline.store(start + static_cast<int64_t>(seconds * 1e9),
                     std::memory_order_release);
      go.store(true, std::memory_order_release);
      for (std::thread& t : threads) t.join();
      tally->seconds =
          static_cast<double>(*std::max_element(ends.begin(), ends.end()) -
                              start) / 1e9;
    }
    for (uint32_t c = 0; c < clients; ++c) {
      tally->Merge(std::move(tallies[c]));
      for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
        served_[mask] += served[c][mask];
      }
      if (stats != nullptr) stats->Add(*tracers[c]);
    }
  }

  const uint32_t clients_;
  std::vector<std::vector<uint8_t>> seqs_;
  std::vector<uint64_t> costs_;
  std::vector<uint64_t> served_;  // queries served per mask, for accounting
  std::unique_ptr<OlapSession> session_;
  const ElementStore* store_ = nullptr;
  std::unique_ptr<ViewCache> cache_;
  std::unique_ptr<AdmissionController> admission_;
  std::vector<std::unique_ptr<AssemblyEngine>> engines_;
  std::vector<std::unique_ptr<ElementServer>> servers_;
};

// ---------------------------------------------------------------------------
// ingest_mixed: writes beside reads on one cached durable store. Traced
// only: its untimed set-up builds the store, and the traced phase
// re-enacts the session from module objects.

class IngestMixed final : public Workload {
 public:
  explicit IngestMixed(const Env& env) : Workload(env) {
    Rng rng(env.cfg.seed ^ 0x494E47455354ull);
    ring_.resize(kIngestRing);
    for (CycleInputs& c : ring_) {
      c.cell = RandomCell(in_, &rng);
      c.amount = RandomAmount(&rng);
      for (uint32_t& r : c.reads) r = in_.SampleMask(&rng);
      for (RangeSpec& box : c.boxes) box = RandomBox(in_, &rng);
    }
  }

  void Setup(const std::string& dir) override {
    dir_ = dir;
    session_ = BuildStore(in_, dir, /*cache=*/false);
  }

  void RunTraced(double seconds, Tally* tally, TracedResult* out) override {
    TracedStack stack(session_->store(), session_->cube());
    stack.wal = Must(WriteAheadLog::Open(
                         FreshDir(dir_ + "/traced") + "/" + kWalFile,
                         in_.shape, nullptr, kSyncEachAppend),
                     "traced WAL");
    Tensor shadow = in_.Cube();  // the cube as the facts applied make it

    // Default lanes first (the session's configuration), then one lane.
    // Each phase starts after a warm-up on a throwaway tracer, so its
    // plans are as warm as the session's.
    struct Phase {
      LayerStats stats;
      Tally tally;
      RangeQueryStats range_stats;
      uint64_t ranges = 0;
      double hit_rate = 0.0;
      double ops_s = 0.0;
    };
    auto run_phase = [&](uint32_t lanes, const char* label) {
      stack.Lanes(lanes);
      Phase warm;
      Tracer warm_tracer("warm-up", size_t{1} << 16);
      TracedLoop(&stack, &shadow, kTracedWarmSeconds, &warm_tracer,
                 &warm.stats, &warm.tally, &warm.range_stats, &warm.ranges);
      Phase p;
      if (!warm.tally.correct) p.tally.Fail(Errors(warm.tally));
      const ServeMetrics before = stack.cache.Metrics();
      TracedLoop(&stack, &shadow, seconds / 2,
                 env_.traces.New(label, size_t{1} << 16), &p.stats, &p.tally,
                 &p.range_stats, &p.ranges);
      const ServeMetrics after = stack.cache.Metrics();
      const double hits = static_cast<double>(after.hits - before.hits);
      const double misses = static_cast<double>(after.misses - before.misses);
      p.hit_rate = hits / std::max(1.0, hits + misses);
      p.ops_s = static_cast<double>(p.tally.attempted) / p.tally.seconds;
      return p;
    };
    Phase wide =
        run_phase(ThreadPool::DefaultThreadCount(), "ingest_mixed.lanes");
    Phase narrow = run_phase(1, "ingest_mixed.1lane");
    out->ops_s = wide.ops_s;
    tally->Merge(std::move(wide.tally));
    tally->Merge(std::move(narrow.tally));
    CheckViews(
        [&](uint32_t mask) { return stack.engine->Assemble(in_.views[mask]); },
        shadow, "ingest_mixed traced", tally);

    const LayerStats& w = wide.stats;
    AddLatency(&out->metrics, "core.wal.append_us", w, kWalAppend, "us");
    AddLatency(&out->metrics, "core.update.apply_us", w, kUpdateApply, "us");
    AddLatency(&out->metrics, "serve.cache.invalidate_us", w, kInvalidate,
               "us");
    AddLatency(&out->metrics, "core.assembly.fill_us", w, kFill, "us");
    out->metrics.push_back(
        {"core.assembly.lane_speedup",
         narrow.stats.P50(kFill, 1.0) / w.P50(kFill, 1.0), "ratio"});
    HaarProbe(stack.cube, out);
    AddLatency(&out->metrics, "range.range_sum_us", w, kRangeSum, "us");
    const double n = static_cast<double>(std::max<uint64_t>(wide.ranges, 1));
    out->metrics.push_back(
        {"range.cell_reads",
         static_cast<double>(wide.range_stats.cell_reads) / n, "count"});
    out->metrics.push_back(
        {"range.assembly_ops",
         static_cast<double>(wide.range_stats.assembly_ops) / n, "count"});
    out->metrics.push_back(
        {"serve.cache.ingest_hit_rate", wide.hit_rate, "ratio"});
    AddShares(w, "ingest_mixed", &out->details);
    out->details["ingest_mixed.traced_ops_s_default_lanes"] = wide.ops_s;
    out->details["ingest_mixed.traced_ops_s_1lane"] = narrow.ops_s;
  }

 private:
  struct CycleInputs {
    std::vector<uint32_t> cell;
    double amount = 0.0;
    std::array<uint32_t, kCycleReads> reads{};
    std::array<RangeSpec, kCycleRanges> boxes;
  };

  /// The session's parts, rebuilt from module objects for the traced run.
  /// Declaration order matters: pool and arena outlive the engines.
  struct TracedStack {
    TracedStack(const ElementStore& s, const Tensor& c)
        : store(s), cube(c), cache(CacheOptions()) {}
    static ViewCacheOptions CacheOptions() {
      ViewCacheOptions options;
      options.enabled = true;
      return options;
    }
    void Lanes(uint32_t lanes) {
      range.reset();
      engine.reset();
      pool.reset();
      if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);
      engine = std::make_unique<AssemblyEngine>(&store, pool.get(), &arena);
      range = std::make_unique<RangeEngine>(
          &store, vecube::MissingElementPolicy::kAssemble, pool.get(), &cache,
          &arena);
      cache.InvalidateAll();
    }

    ElementStore store;
    Tensor cube;
    ViewCache cache;
    std::unique_ptr<WriteAheadLog> wal;
    std::unique_ptr<ThreadPool> pool;
    ScratchArena arena;
    std::unique_ptr<AssemblyEngine> engine;
    std::unique_ptr<RangeEngine> range;
  };

  /// Every group-by of the current state against the oracle over the
  /// shadow cube that saw the same facts.
  template <typename Assemble>
  void CheckViews(Assemble assemble, const Tensor& shadow, const char* what,
                  Tally* tally) {
    for (uint32_t mask = 0; mask < in_.num_views(); ++mask) {
      Result<Tensor> view = assemble(mask);
      const Tensor want = OracleView(shadow, mask);
      if (!view.ok()) {
        tally->Fail(std::string(what) + " view: " + view.status().ToString());
      } else if (!SameBits(*view, want)) {
        tally->Fail(std::string(what) + " view " + std::to_string(mask) +
                    ": " + Mismatch(*view, want));
      }
    }
  }

  const CycleInputs& CycleAt(uint64_t op) const {
    return ring_[(op / kCycleOps) % kIngestRing];
  }

  /// Sampled RangeSum check against a brute-force sum of the shadow cube.
  bool CheckRange(double sum, const RangeSpec& box, const Tensor& shadow,
                  Tally* tally) {
    if (range_checks_++ % kRangeCheckEvery != 0) return true;
    env_.inject.Corrupt(&sum);
    if (sum == BruteForceSum(shadow, box)) return true;
    tally->Fail("RangeSum " + box.ToString() + " differs from brute force");
    return false;
  }

  /// The same cycle re-enacted on `stack` with spans, for `seconds`.
  void TracedLoop(TracedStack* stack, Tensor* shadow, double seconds,
                  Tracer* tracer, LayerStats* stats, Tally* tally,
                  RangeQueryStats* range_stats, uint64_t* ranges) {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    // Start on a cycle boundary so every phase sees whole cycles.
    next_op_ += (kCycleOps - next_op_ % kCycleOps) % kCycleOps;
    do {
      const uint64_t op = next_op_++;
      const CycleInputs& c = CycleAt(op);
      const uint32_t pos = static_cast<uint32_t>(op % kCycleOps);
      bool ok = true;
      if (pos == 0) {
        {
          Chain chain(tracer, kAddFact, op);
          chain.Step(kWalAppend);
          CellDelta delta;
          delta.coords = c.cell;
          delta.delta = c.amount;
          ok = stack->wal->Append(delta).ok();
          if (ok) {
            chain.Step(kUpdateApply);
            stack->cube[stack->cube.FlatIndex(c.cell)] += c.amount;
            ok = vecube::ApplyPointDelta(&stack->store, c.cell, c.amount).ok();
            chain.Step(kInvalidate);
            stack->cache.InvalidateAll();
          }
        }
        if (ok) (*shadow)[shadow->FlatIndex(c.cell)] += c.amount;
      } else if (pos <= kCycleReads) {
        ok = TracedElement(stack, in_.views[c.reads[pos - 1]], tracer, op);
      } else {
        const RangeSpec& box = c.boxes[pos - kCycleReads - 1];
        Result<double> sum = 0.0;
        {
          Chain chain(tracer, kRangeQuery, op);
          chain.Step(kRangeSum);
          sum = stack->range->RangeSum(box, range_stats);
        }
        ++*ranges;
        ok = sum.ok() && CheckRange(*sum, box, *shadow, tally);
      }
      ++tally->attempted;
      if (ok) {
        ++tally->ok;
      } else if (tally->correct) {
        tally->Fail("ingest_mixed traced op " + std::to_string(pos) +
                    " failed");
      }
    } while (NowNs() < end && !tracer->Full());
    tally->seconds = static_cast<double>(NowNs() - start) / 1e9;
    stats->Add(*tracer);
  }

  /// Element(): cache lookup, and on a miss plan + assemble + publish —
  /// what ElementServer::Serve does for the session.
  bool TracedElement(TracedStack* stack, const ElementId& view,
                     Tracer* tracer, uint64_t op) {
    Chain chain(tracer, kElement, op);
    chain.Step(kLookup);
    ViewCache::LookupOutcome outcome = stack->cache.LookupOrBegin(view);
    if (outcome.hit) {
      chain.Step(kCopy);
      answer_ = *outcome.hit;
      chain.Step(kUnpin);
      outcome.hit = ViewCache::ReadHandle();
      return true;
    }
    if (!outcome.fill.leader()) return false;  // single client: never
    chain.Step(kPlanCost);
    const uint64_t cost = stack->engine->PlanCost(view);
    chain.Step(kFill);
    Result<Tensor> data = stack->engine->Assemble(view);
    if (!data.ok()) {
      stack->cache.AbortFill(std::move(outcome.fill), data.status());
      return false;
    }
    chain.Step(kCompleteFill);
    std::shared_ptr<const Tensor> served = stack->cache.CompleteFill(
        std::move(outcome.fill), std::move(data).value(), cost);
    chain.Step(kCopy);
    answer_ = *served;
    return true;
  }

  /// Fused-kernel bandwidth of CascadeSum over the root along each
  /// dimension, against memcpy of the same input bytes. Both count bytes
  /// read plus bytes written.
  void HaarProbe(const Tensor& root, TracedResult* out) {
    const uint32_t lanes = ThreadPool::DefaultThreadCount();
    std::unique_ptr<ThreadPool> pool;
    if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);
    ScratchArena arena;
    const uint32_t levels = static_cast<uint32_t>(
        std::countr_zero(static_cast<uint32_t>(root.extent(0))));
    const double in_bytes = static_cast<double>(root.size()) * sizeof(double);
    std::vector<double> cascade_gbps;
    std::vector<double> copy_gbps;
    std::vector<double> copy_buf(root.size());
    for (uint32_t rep = 0; rep < kHaarProbeReps; ++rep) {
      for (uint32_t dim = 0; dim < root.ndim(); ++dim) {
        const int64_t t0 = NowNs();
        Result<Tensor> sum = vecube::CascadeSum(root, dim, levels, nullptr,
                                                pool.get(), &arena);
        const double ns = static_cast<double>(NowNs() - t0);
        if (!sum.ok()) Fatal("CascadeSum probe failed");
        const double bytes =
            in_bytes + static_cast<double>(sum->size()) * sizeof(double);
        cascade_gbps.push_back(bytes / ns);
      }
      const int64_t t0 = NowNs();
      std::memcpy(copy_buf.data(), root.raw(), root.size() * sizeof(double));
      const double ns = static_cast<double>(NowNs() - t0);
      copy_gbps.push_back(2.0 * in_bytes / ns);
    }
    out->metrics.push_back({"haar.fused.gbps", Median(cascade_gbps), "GB/s"});
    out->metrics.push_back({"util.copy_gbps", Median(copy_gbps), "GB/s"});
  }

  std::string dir_;
  std::vector<CycleInputs> ring_;
  std::unique_ptr<OlapSession> session_;
  Tensor answer_;   // last Element answer
  uint64_t next_op_ = 0;
  uint64_t range_checks_ = 0;
};

// ---------------------------------------------------------------------------
// Command line and main.

/// The --workload choices: the workloads with a timed region.
const std::vector<std::string>& TimedWorkloadNames() {
  static const std::vector<std::string> names = {"cube_cold", "serve_hot"};
  return names;
}

uint32_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

std::unique_ptr<TimedWorkload> MakeTimed(const std::string& name,
                                         const Env& env) {
  if (name == "cube_cold") return std::make_unique<CubeCold>(env);
  const uint32_t clients = env.cfg.smoke ? std::min(Nproc(), 2u) : Nproc();
  return std::make_unique<ServeHot>(env, std::max(clients, 1u));
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Env& env) {
  if (name == "ingest_mixed") return std::make_unique<IngestMixed>(env);
  return MakeTimed(name, env);
}

std::string FsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  if (st.f_type == 0x01021994) return "tmpfs";
  if (st.f_type == 0xEF53) return "ext2/3/4";
  if (st.f_type == 0x794c7630) return "overlayfs";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

void Usage() {
  std::fprintf(stderr,
               "usage: vecube_perfbench --workload {cube_cold|serve_hot} "
               "--seed N --seconds S --trace {0|1}\n"
               "       [--smoke] [--inject-wrong-answer] [--run-dir DIR]\n");
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--run-dir") {
      cfg.run_dir = value();
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--inject-wrong-answer") {
      cfg.inject_wrong_answer = true;
    } else {
      Usage();
    }
  }
  if (std::find(TimedWorkloadNames().begin(), TimedWorkloadNames().end(),
                cfg.workload) == TimedWorkloadNames().end() ||
      !(cfg.seconds > 0.0)) {
    Usage();
  }
  if (cfg.smoke) {
    cfg.extent = 8;
    cfg.ndim = 3;
    cfg.setup_reps = 1;
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = NowNs();
  const Config cfg = ParseArgs(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const std::string root = FreshDir(cfg.run_dir + "/" + cfg.workload);
  const Inputs in = MakeInputs(cfg);
  TraceLog traces;
  Injector inject;
  const Env env{cfg, in, traces, inject};

  std::map<std::string, double> details;
  std::vector<Metric> metrics;
  Tally tally;

  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<TimedWorkload> workload;
  const uint32_t reps = cfg.trace ? 1 : cfg.setup_reps;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    workload.reset();
    const std::string dir = FreshDir(root + "/rep" + std::to_string(rep));
    workload = MakeTimed(cfg.workload, env);
    const int64_t t0 = NowNs();
    workload->Setup(dir);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  details["process_to_first_op_s"] =
      static_cast<double>(NowNs() - process_start) / 1e9;
  if (cfg.inject_wrong_answer) inject.Arm();

  if (!cfg.trace) {
    workload->Run(cfg.seconds, &tally);
    workload->Finish(&tally);
    LatencyLog& lat = tally.latency;
    const TailRank tail = Tail(lat.count());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"ok_share",
         static_cast<double>(tally.ok) /
             static_cast<double>(std::max<uint64_t>(tally.attempted, 1)),
         "ratio"},
        {"ops_s", static_cast<double>(tally.attempted) / tally.seconds, "1/s"},
        {"p50_ms", MedianMs(&lat), "ms"},
        {"tail_ms", static_cast<double>(lat.AtRank(tail.rank)) / 1e6, "ms"},
    };
    details["tail_percentile"] = tail.percentile;
    details["latency_samples"] = static_cast<double>(lat.count());
    details["timed_s"] = tally.seconds;
    details["shed"] = static_cast<double>(tally.shed);
  } else {
    // The traced run: an untraced slice of this workload for the overhead
    // base, then a traced slice of every workload, ingest_mixed included
    // (each owns its layers).
    const double slice = cfg.seconds / 4;
    Tally untraced;
    workload->Run(slice, &untraced);
    workload->Finish(&untraced);
    const double untraced_ops_s =
        static_cast<double>(untraced.attempted) / untraced.seconds;
    tally.Merge(std::move(untraced));

    // serve_hot's slice ends early once its span buffers fill; cube_cold
    // goes last and takes what is left, for more whole cycles.
    std::map<std::string, TracedResult> traced;
    double budget = 0.0;
    for (const std::string name : {"ingest_mixed", "serve_hot", "cube_cold"}) {
      std::unique_ptr<Workload> w;
      if (name == cfg.workload) {
        w = std::move(workload);
      } else {
        w = MakeWorkload(name, env);
        w->Setup(FreshDir(root + "/traced-" + name));
      }
      Tally t;
      budget += slice;
      const int64_t t0 = NowNs();
      w->RunTraced(budget, &t, &traced[name]);
      budget = std::max(0.0, budget - static_cast<double>(NowNs() - t0) / 1e9);
      w->Finish(&t);
      tally.Merge(std::move(t));
    }

    // select.optimize_ms: what Optimize() spends choosing and materializing.
    std::vector<double> optimize_ms;
    const Tensor cube = in.Cube();
    for (uint32_t rep = 0; rep < cfg.setup_reps; ++rep) {
      const int64_t t0 = NowNs();
      vecube::BasisSelection selection =
          Must(vecube::SelectMinCostBasis(in.shape, in.population), "select");
      vecube::ElementComputer computer(in.shape, &cube);
      ElementStore store = Must(computer.Materialize(selection.basis),
                                "materialize");
      optimize_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }

    for (const std::string name : {"cube_cold", "serve_hot", "ingest_mixed"}) {
      for (Metric& m : traced[name].metrics) metrics.push_back(std::move(m));
      for (const auto& [k, v] : traced[name].details) details[k] = v;
    }
    metrics.push_back({"select.optimize_ms", Median(optimize_ms), "ms"});
    metrics.push_back(
        {"trace.overhead", untraced_ops_s / traced[cfg.workload].ops_s,
         "ratio"});
    details["untraced_ops_s"] = untraced_ops_s;
    details["traced_ops_s"] = traced[cfg.workload].ops_s;
    traces.WriteCsv(cfg.run_dir + "/" + cfg.workload + "/spans.csv");
  }

  // Environment record, setup breakdown and errors, then the result.
  std::string out = "{\"details\": {\"environment\": {";
  out += "\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"nproc\": " + std::to_string(Nproc());
  out += ", \"lanes\": " + std::to_string(ThreadPool::DefaultThreadCount());
  out += ", \"compiler\": " + Quote(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  out += ", \"durable_dir\": " + Quote(root);
  out += ", \"durable_fs\": " + Quote(FsType(root));
  out += ", \"flush_policy\": " + Quote(kFlushPolicy) + "}";
  out += ", \"workload\": " + Quote(cfg.workload);
  out += ", \"seed\": " + std::to_string(cfg.seed);
  out += ", \"seconds\": " + Num(cfg.seconds);
  out += ", \"trace\": " + std::string(cfg.trace ? "1" : "0");
  out += ", \"smoke\": " + std::string(cfg.smoke ? "true" : "false");
  out += ", \"cube\": \"" + std::to_string(cfg.extent) + "^" +
         std::to_string(cfg.ndim) + "\"";
  out += ", \"setup_s_each\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out += (i ? ", " : "") + Num(setup_s[i]);
  }
  out += "]";
  for (const auto& [k, v] : details) out += ", " + Quote(k) + ": " + Num(v);
  out += ", \"errors\": [";
  for (size_t i = 0; i < tally.errors.size(); ++i) {
    out += (i ? ", " : "") + Quote(tally.errors[i]);
  }
  out += "]}}";
  std::printf("%s\n", out.c_str());

  const bool correct = tally.correct && tally.ok == tally.attempted;
  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(tally.attempted);
  result += ", \"failed\": " + std::to_string(tally.attempted - tally.ok);
  result += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
              Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
              "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
