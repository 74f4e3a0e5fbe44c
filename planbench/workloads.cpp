#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench_common.h"
#include "check.h"
#include "cluster/oracle.h"
#include "cluster/router.h"
#include "cluster/worker.h"
#include "compile/batch.h"
#include "compile/cache.h"
#include "compile/tune.h"
#include "core/plan_search.h"
#include "ir/stages.h"
#include "serve/oracle.h"
#include "serve/service.h"
#include "spans.h"
#include "util/rng.h"

namespace planbench {

namespace {

using namespace predtop;
using Clock = std::chrono::steady_clock;
using SliceKey = std::pair<std::int32_t, std::int32_t>;
/// Named per-search counts; a run sums them over its searches.
using Counts = std::map<std::string, double>;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- the fig10 (model, platform) pairs and their pinned predictors ----

struct PairSpec {
  std::string tag;  // checkpoint file prefix
  core::BenchmarkModel benchmark;
  sim::ClusterSpec cluster;
  std::string platform;
  core::PlanSearchConfig config;
};

// fig10_optimization's MakePlanConfig, under the default (non-PREDTOP_FULL)
// grid: the span cap leaves headroom above the minimum covering span, and
// training runs the grid's epochs capped at 150 with the grid seed.
core::PlanSearchConfig Fig10PlanConfig(const core::BenchmarkModel& benchmark,
                                       const sim::ClusterSpec& cluster, std::int32_t max_span,
                                       const bench::GridConfig& grid) {
  const std::int32_t devices = cluster.TotalDevices();
  const std::int32_t min_span = (benchmark.num_layers + devices - 1) / devices;
  max_span = std::max(max_span, std::min(benchmark.num_layers, min_span + 3));
  core::PlanSearchConfig config;
  config.num_microbatches = 8;
  config.sample_fraction = 0.12;
  config.max_span = max_span;
  config.train = grid.train;
  config.train.max_epochs = std::min<std::int64_t>(config.train.max_epochs, 150);
  config.train.patience = config.train.max_epochs;
  config.predictor = grid.predictor;
  config.seed = grid.seed;
  return config;
}

std::vector<PairSpec> Fig10Pairs() {
  const bench::GridConfig grid = bench::LoadGridConfig();
  const auto make = [&grid](std::string tag, core::BenchmarkModel benchmark,
                            sim::ClusterSpec cluster, std::string platform,
                            std::int32_t max_span) {
    PairSpec pair;
    pair.config = Fig10PlanConfig(benchmark, cluster, max_span, grid);
    pair.tag = std::move(tag);
    pair.benchmark = std::move(benchmark);
    pair.cluster = std::move(cluster);
    pair.platform = std::move(platform);
    return pair;
  };
  std::vector<PairSpec> pairs;
  pairs.push_back(make("gpt3_platform1", bench::PaperGpt3(), sim::Platform1(), "platform1",
                       grid.gpt_max_span));
  pairs.push_back(make("gpt3_platform2", bench::PaperGpt3(), sim::Platform2(), "platform2",
                       grid.gpt_max_span));
  pairs.push_back(make("moe_platform2", bench::PaperMoe(), sim::Platform2(), "platform2",
                       grid.moe_max_span));
  return pairs;
}

std::int32_t EffectiveMaxSpan(const PairSpec& pair) {
  return pair.config.max_span > 0 ? pair.config.max_span : pair.benchmark.num_layers;
}

std::vector<serve::ModelKey> MeshKeys(const PairSpec& pair) {
  std::vector<serve::ModelKey> keys;
  for (const sim::Mesh& mesh : sim::PaperMeshes(pair.cluster)) {
    keys.push_back({pair.benchmark.name, pair.platform, mesh, {}});
  }
  return keys;
}

std::string CheckpointPath(const std::string& dir, const PairSpec& pair, std::size_t mesh) {
  return dir + "/" + pair.tag + "_mesh" + std::to_string(mesh) + ".ptck";
}

void LoadPredictors(serve::ModelRegistry& registry, const PairSpec& pair,
                    const std::string& dir) {
  const std::vector<serve::ModelKey> keys = MeshKeys(pair);
  for (std::size_t m = 0; m < keys.size(); ++m) {
    const std::string path = CheckpointPath(dir, pair, m);
    const fault::Status status = registry.TryRegisterFromFile(keys[m], path);
    if (!status.ok()) {
      throw std::runtime_error("predictor " + path + " failed to load: " + status.ToString());
    }
  }
}

parallel::InterOpOptimizer MakeOptimizer(const PairSpec& pair, std::int32_t microbatches,
                                         std::int32_t max_stages) {
  parallel::InterOpOptions options;
  options.num_layers = pair.benchmark.num_layers;
  options.num_microbatches = microbatches;
  options.submeshes = sim::PaperMeshes(pair.cluster);
  options.max_stages = max_stages;
  return parallel::InterOpOptimizer(pair.cluster, options);
}

// ---- the independent reference ----

/// Stage-latency table of one pair priced through the autograd tape
/// (LatencyRegressor::PredictSecondsTape) on predictors loaded on their own,
/// one forward per distinct fingerprint per mesh. Shares no cache, compiled
/// program or batch executor with the served path.
class TapeTable {
 public:
  TapeTable(const PairSpec& pair, const std::string& dir) {
    core::PlanSearch search(pair.benchmark, pair.cluster, pair.config);
    meshes_ = search.Meshes();
    cells_.resize(meshes_.size());
    const auto slices =
        ir::EnumerateStageSlices(pair.benchmark.num_layers, search.EffectiveMaxSpan());
    for (std::size_t m = 0; m < meshes_.size(); ++m) {
      core::LatencyRegressor model = core::LatencyRegressor::Load(CheckpointPath(dir, pair, m));
      std::map<std::uint64_t, double> by_fingerprint;
      for (const ir::StageSlice slice : slices) {
        const graph::EncodedGraph& g = search.EncodedFor(slice);
        const auto [it, fresh] = by_fingerprint.try_emplace(g.fingerprint, 0.0);
        if (fresh) it->second = model.PredictSecondsTape(g);
        cells_[m][{slice.first_layer, slice.last_layer}] = it->second;
      }
    }
  }

  [[nodiscard]] parallel::StageLatencyResult operator()(ir::StageSlice slice,
                                                        sim::Mesh mesh) const {
    for (std::size_t m = 0; m < meshes_.size(); ++m) {
      if (!(meshes_[m] == mesh)) continue;
      const auto it = cells_[m].find({slice.first_layer, slice.last_layer});
      if (it != cells_[m].end()) return {it->second, {}};
    }
    return {kInf, {}};
  }

  /// The reference plan: the scalar-oracle fill path over this table.
  [[nodiscard]] parallel::PipelinePlan Plan(const parallel::InterOpOptimizer& optimizer,
                                            const std::string& what) const {
    parallel::PipelinePlan plan = optimizer.Optimize(
        [this](ir::StageSlice slice, sim::Mesh mesh) { return (*this)(slice, mesh); });
    if (!plan.Valid()) throw std::runtime_error("reference has no plan for " + what);
    return plan;
  }

 private:
  std::vector<sim::Mesh> meshes_;
  std::vector<std::map<SliceKey, double>> cells_;
};

// ---- instrumented calls into the layers ----

/// The encoder handed to an oracle. A slice seen for the first time is built
/// (ir: PlanSearch::ProgramFor) and then encoded (graph: EncodedFor) under
/// separate spans; repeats are memo lookups. Untraced runs take the same
/// path with the spans disabled.
class EncodeTap {
 public:
  explicit EncodeTap(core::PlanSearch& search) : search_(search) {}
  EncodeTap(const EncodeTap&) = delete;
  EncodeTap& operator=(const EncodeTap&) = delete;

  [[nodiscard]] const graph::EncodedGraph& operator()(ir::StageSlice slice) {
    if (!seen_.insert({slice.first_layer, slice.last_layer}).second) {
      return search_.EncodedFor(slice);
    }
    {
      const Span span("ir.build");
      (void)search_.ProgramFor(slice);
    }
    const graph::EncodedGraph* g = nullptr;
    {
      const Span span("graph.encode");
      g = &search_.EncodedFor(slice);
    }
    ++built_;
    nodes_ += static_cast<std::uint64_t>(g->num_nodes);
    return *g;
  }

  /// The tap must outlive the returned encoder.
  [[nodiscard]] serve::StageEncoder Encoder() {
    return [this](ir::StageSlice slice) -> const graph::EncodedGraph& { return (*this)(slice); };
  }

  /// Moves this tap's build/encode counts since the last call into `counts`.
  void Drain(Counts& counts) {
    counts["ir.stages_built"] += static_cast<double>(built_);
    counts["graph.stages_encoded"] += static_cast<double>(built_);
    counts["graph.nodes_encoded"] += static_cast<double>(nodes_);
    built_ = 0;
    nodes_ = 0;
  }

 private:
  core::PlanSearch& search_;
  std::set<SliceKey> seen_;
  std::uint64_t built_ = 0;
  std::uint64_t nodes_ = 0;
};

/// Inter-op DP through a batch oracle, with the oracle call under its own
/// span so the DP's self time excludes it.
parallel::PipelinePlan Optimize(const parallel::InterOpOptimizer& optimizer,
                                const parallel::StageLatencyBatchOracle& oracle,
                                const char* oracle_span, Counts& counts) {
  const Span span("parallel.inter_op");
  return optimizer.Optimize([&](std::span<const parallel::StageQuery> queries) {
    counts["parallel.table_cells"] += static_cast<double>(queries.size());
    const Span oracle_call(oracle_span);
    return oracle(queries);
  });
}

/// (first layer, last layer, mesh nodes, mesh GPUs per node) of a stage.
using DeployedCells = std::set<std::tuple<int, int, int, int>>;

/// Deploy a plan: compile its stages for real (TrueStageLatency, which runs
/// IntraOpCompiler::CompileBest on a miss) and score it. `deployed` holds the
/// cells this PlanSearch has compiled, so misses are counted.
double Deploy(core::PlanSearch& search, const parallel::InterOpOptimizer& optimizer,
              parallel::PipelinePlan plan, DeployedCells& deployed, Counts& counts) {
  const Span span("parallel.intra_op");
  for (parallel::PipelineStageChoice& stage : plan.stages) {
    if (deployed
            .insert({stage.slice.first_layer, stage.slice.last_layer, stage.mesh.num_nodes,
                     stage.mesh.gpus_per_node})
            .second) {
      counts["parallel.intra_op_compiles"] += 1.0;
    }
    stage.config = search.TrueStageLatency(stage.slice, stage.mesh).config;
  }
  return optimizer.EvaluatePlan(plan, [&search](ir::StageSlice s, sim::Mesh m) {
    return search.TrueStageLatency(s, m);
  });
}

/// Outside estimate of a search's forward time: run exactly the distinct
/// (mesh model, graph) pairs the search's table forwarded through
/// LatencyRegressor::PredictBatch, one batch per mesh model as the service
/// does. Called after the search, outside its wall time, traced runs only.
void MeasureForwards(core::PlanSearch& search, const serve::ModelRegistry& registry,
                     const std::vector<serve::ModelKey>& keys, Counts& counts) {
  const auto slices =
      ir::EnumerateStageSlices(search.Benchmark().num_layers, search.EffectiveMaxSpan());
  std::map<std::uint64_t, const graph::EncodedGraph*> distinct;
  for (const ir::StageSlice slice : slices) {
    const graph::EncodedGraph& g = search.EncodedFor(slice);
    distinct.emplace(g.fingerprint, &g);
  }
  std::vector<const graph::EncodedGraph*> graphs;
  for (const auto& [fingerprint, g] : distinct) graphs.push_back(g);
  for (const serve::ModelKey& key : keys) {
    const std::shared_ptr<core::LatencyRegressor> model = registry.Find(key);
    if (!model) throw std::runtime_error("no model registered for " + key.ToString());
    const Span span("compile.forward");
    const auto start = Clock::now();
    (void)model->PredictBatch(std::span<const graph::EncodedGraph* const>(graphs));
    counts["compile.forward_ms"] += MsSince(start);
    counts["compile.forward_queries"] += static_cast<double>(graphs.size());
  }
}

/// Long-lived per-pair state of a warm planner: one PlanSearch, its encoder
/// tap, the oracle over them, and the cells deployed so far.
template <typename Oracle>
struct LivePlanner {
  explicit LivePlanner(const PairSpec& pair)
      : search(pair.benchmark, pair.cluster, pair.config), tap(search) {}
  core::PlanSearch search;
  EncodeTap tap;
  std::unique_ptr<Oracle> oracle;
  DeployedCells deployed;
};

// ---- counter snapshots ----

struct Snapshot {
  serve::ServiceStats service;
  cluster::RouterStats router;
  std::uint64_t worker_forwards = 0;
  std::uint64_t program_hits = 0;
  std::uint64_t program_misses = 0;
  std::uint64_t batched = 0;
  std::uint64_t interleaved = 0;
  std::uint64_t autotune = 0;
};

struct Probe {
  serve::PredictionService* service = nullptr;
  cluster::Router* router = nullptr;
  std::vector<cluster::Worker*> workers;

  [[nodiscard]] Snapshot Take() const {
    Snapshot s;
    if (service != nullptr) s.service = service->Stats();
    if (router != nullptr) s.router = router->Stats();
    for (cluster::Worker* worker : workers) {
      s.worker_forwards += worker->Service()->Stats().forwards;
    }
    s.program_hits = compile::ProgramCache::Global().Hits();
    s.program_misses = compile::ProgramCache::Global().Misses();
    s.batched = compile::BatchedForwards();
    s.interleaved = compile::InterleavedForwards();
    s.autotune = compile::AutotuneSweeps();
    return s;
  }
};

void AddDelta(const Snapshot& a, const Snapshot& b, Counts& counts) {
  const auto add = [&counts](const char* name, std::uint64_t before, std::uint64_t after) {
    counts[name] += static_cast<double>(after - before);
  };
  add("serve.queries", a.service.queries, b.service.queries);
  add("serve.forwards", a.service.forwards, b.service.forwards);
  add("serve.coalesced", a.service.coalesced, b.service.coalesced);
  add("serve.cache_hits", a.service.cache.hits, b.service.cache.hits);
  add("serve.cache_misses", a.service.cache.misses, b.service.cache.misses);
  add("compile.program_cache_hits", a.program_hits, b.program_hits);
  add("compile.program_cache_misses", a.program_misses, b.program_misses);
  add("compile.batched_forwards", a.batched, b.batched);
  add("compile.interleaved_forwards", a.interleaved, b.interleaved);
  add("compile.autotune_sweeps", a.autotune, b.autotune);
  add("cluster.router_queries", a.router.queries, b.router.queries);
  add("cluster.coalesced", a.router.coalesced, b.router.coalesced);
  add("cluster.failovers", a.router.failovers, b.router.failovers);
  add("cluster.unanswered", a.router.unanswered, b.router.unanswered);
  add("cluster.worker_forwards", a.worker_forwards, b.worker_forwards);
}

// ---- workloads ----

/// One plan a search produced, checked by the run loop.
struct PlanResult {
  std::string key;  // the plan's input: pair, plus sweep point for what-if
  const parallel::PipelinePlan* reference = nullptr;
  parallel::PipelinePlan plan;
  double true_latency_s = kInf;
};

/// One search: its plans (two for a cluster search), time and counts.
struct Outcome {
  std::vector<PlanResult> plans;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::string failure;  // set by the workload's own checks
  Counts counts;
};

/// Run `fn` as the timed part of a search: wall and CPU time, root span.
template <typename Fn>
void Timed(Outcome& out, Fn&& fn) {
  const double cpu_before = CpuMs();
  const auto start = Clock::now();
  {
    const Span root("search");
    fn();
  }
  out.wall_ms = MsSince(start);
  out.cpu_ms = CpuMs() - cpu_before;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed, once, before any set-up: the reference plans.
  virtual void BuildReferences(const std::string& dir) = 0;
  /// Timed as setup_s: load the predictors, start the service or cluster,
  /// warm up. Runs on a torn-down workload.
  virtual void SetUp(const std::string& dir) = 0;
  /// Untimed: release everything SetUp built.
  virtual void TearDown() = 0;
  /// Search number `i`; `traced` adds the outside forward measurement.
  [[nodiscard]] virtual Outcome Search(std::size_t i, bool traced) = 0;
  /// Metrics only known at the end of the loop (worker histograms).
  virtual void Finish(Counts& /*counts*/) {}
  [[nodiscard]] virtual std::size_t ServiceThreads() const = 0;
};

/// search_cold: one search plans the three fig10 pairs one after the other,
/// in an order rotated by the seed, each from a fresh PlanSearch and an
/// emptied prediction cache. A sample holds all three pairs so the wall-time
/// distribution has one mode: a median over a mix of GPT-3/platform2's
/// ~210 ms and the others' ~500 ms sits where samples are sparse.
class SearchCold final : public Workload {
 public:
  explicit SearchCold(std::uint64_t seed) : pairs_(Fig10Pairs()) {
    start_ = static_cast<std::size_t>(util::Rng(seed).NextBelow(pairs_.size()));
  }

  void BuildReferences(const std::string& dir) override {
    for (const PairSpec& pair : pairs_) {
      const TapeTable table(pair, dir);
      references_.push_back(
          table.Plan(MakeOptimizer(pair, pair.config.num_microbatches, 0), pair.tag));
    }
  }

  void SetUp(const std::string& dir) override {
    registry_ = std::make_shared<serve::ModelRegistry>();
    for (const PairSpec& pair : pairs_) {
      LoadPredictors(*registry_, pair, dir);
      keys_.push_back(MeshKeys(pair));
    }
    serve::ServiceOptions options;
    options.threads = 0;  // hardware_concurrency
    service_ = std::make_unique<serve::PredictionService>(registry_, options);
    for (std::size_t p = 0; p < pairs_.size(); ++p) (void)Run(p, false);
  }

  void TearDown() override {
    service_.reset();
    registry_.reset();
    keys_.clear();
  }

  Outcome Search(std::size_t /*i*/, bool traced) override {
    Outcome out;
    for (std::size_t k = 0; k < pairs_.size(); ++k) {
      Outcome part = Run((start_ + k) % pairs_.size(), traced);
      out.wall_ms += part.wall_ms;
      out.cpu_ms += part.cpu_ms;
      for (const auto& [name, value] : part.counts) out.counts[name] += value;
      for (PlanResult& result : part.plans) out.plans.push_back(std::move(result));
    }
    return out;
  }

  [[nodiscard]] std::size_t ServiceThreads() const override {
    return service_->Pool().ThreadCount();
  }

 private:
  Outcome Run(std::size_t p, bool traced) {
    const PairSpec& pair = pairs_[p];
    Outcome out;
    PlanResult& result = out.plans.emplace_back();
    result.key = pair.tag;
    result.reference = &references_[p];
    service_->ClearCache();
    const Probe probe{service_.get(), nullptr, {}};
    const Snapshot before = probe.Take();
    std::optional<core::PlanSearch> search;
    std::optional<EncodeTap> tap;
    DeployedCells deployed;
    Timed(out, [&] {
      search.emplace(pair.benchmark, pair.cluster, pair.config);
      tap.emplace(*search);
      const serve::ServingOracle oracle(*service_, search->Meshes(), keys_[p], tap->Encoder(),
                                        search->EffectiveMaxSpan());
      const parallel::InterOpOptimizer optimizer = search->MakeOptimizer();
      result.plan = Optimize(optimizer, oracle.AsBatchOracle(), "serve.oracle", out.counts);
      result.true_latency_s = Deploy(*search, optimizer, result.plan, deployed, out.counts);
    });
    AddDelta(before, probe.Take(), out.counts);
    tap->Drain(out.counts);
    if (traced) MeasureForwards(*search, *registry_, keys_[p], out.counts);
    return out;
  }

  std::vector<PairSpec> pairs_;
  std::size_t start_ = 0;
  std::vector<parallel::PipelinePlan> references_;
  std::shared_ptr<serve::ModelRegistry> registry_;
  std::vector<std::vector<serve::ModelKey>> keys_;
  std::unique_ptr<serve::PredictionService> service_;
};

/// whatif_warm: sweep points (microbatches x max stages) over the three
/// pairs, each searched through the same long-lived ServingOracle and
/// PlanSearch against a warm cache. A search that forwards fails.
class WhatIfWarm final : public Workload {
 public:
  explicit WhatIfWarm(std::uint64_t seed) : pairs_(Fig10Pairs()), rng_(seed) {}

  void BuildReferences(const std::string& dir) override {
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      const PairSpec& pair = pairs_[p];
      const TapeTable table(pair, dir);
      for (const std::int32_t max_stages : StageBounds(pair)) {
        for (const std::int32_t microbatches : {1, 2, 4, 8, 16, 32}) {
          Point point;
          point.pair = p;
          point.microbatches = microbatches;
          point.max_stages = max_stages;
          point.key = pair.tag + "/B=" + std::to_string(microbatches) +
                      "/S=" + std::to_string(max_stages);
          point.reference =
              table.Plan(MakeOptimizer(pair, microbatches, max_stages), point.key);
          points_.push_back(std::move(point));
        }
      }
    }
  }

  void SetUp(const std::string& dir) override {
    registry_ = std::make_shared<serve::ModelRegistry>();
    for (const PairSpec& pair : pairs_) LoadPredictors(*registry_, pair, dir);
    serve::ServiceOptions options;
    options.threads = 0;  // hardware_concurrency
    service_ = std::make_unique<serve::PredictionService>(registry_, options);
    for (const PairSpec& pair : pairs_) {
      auto live = std::make_unique<Live>(pair);
      live->oracle = std::make_unique<serve::ServingOracle>(
          *service_, live->search.Meshes(), MeshKeys(pair), live->tap.Encoder(),
          live->search.EffectiveMaxSpan());
      // Warm-up: one default search fills the encodings and the cache.
      Counts ignored;
      (void)Optimize(live->search.MakeOptimizer(), live->oracle->AsBatchOracle(),
                     "serve.oracle", ignored);
      live->tap.Drain(ignored);
      live_.push_back(std::move(live));
    }
  }

  void TearDown() override {
    live_.clear();
    service_.reset();
    registry_.reset();
  }

  Outcome Search(std::size_t /*i*/, bool /*traced*/) override {
    const Point& point =
        points_[static_cast<std::size_t>(rng_.NextBelow(points_.size()))];
    Live& live = *live_[point.pair];
    Outcome out;
    PlanResult& result = out.plans.emplace_back();
    result.key = point.key;
    result.reference = &point.reference;
    const Probe probe{service_.get(), nullptr, {}};
    const Snapshot before = probe.Take();
    Timed(out, [&] {
      const parallel::InterOpOptimizer optimizer =
          MakeOptimizer(pairs_[point.pair], point.microbatches, point.max_stages);
      result.plan =
          Optimize(optimizer, live.oracle->AsBatchOracle(), "serve.oracle", out.counts);
      result.true_latency_s =
          Deploy(live.search, optimizer, result.plan, live.deployed, out.counts);
    });
    AddDelta(before, probe.Take(), out.counts);
    live.tap.Drain(out.counts);
    if (out.counts["serve.forwards"] != 0.0) {
      out.failure = "warm what-if search ran " + std::to_string(out.counts["serve.forwards"]) +
                    " forwards";
    }
    return out;
  }

  [[nodiscard]] std::size_t ServiceThreads() const override {
    return service_->Pool().ThreadCount();
  }

 private:
  struct Point {
    std::size_t pair = 0;
    std::int32_t microbatches = 8;
    std::int32_t max_stages = 0;
    std::string key;
    parallel::PipelinePlan reference;
  };
  /// Stage-count bounds with a feasible plan: unbounded, then from the
  /// fewest stages that can cover the model up to two more, within the
  /// cluster's device count.
  static std::vector<std::int32_t> StageBounds(const PairSpec& pair) {
    const std::int32_t span = EffectiveMaxSpan(pair);
    const std::int32_t fewest = (pair.benchmark.num_layers + span - 1) / span;
    std::vector<std::int32_t> bounds{0};
    for (std::int32_t s = fewest; s <= std::min(fewest + 2, pair.cluster.TotalDevices()); ++s) {
      bounds.push_back(s);
    }
    return bounds;
  }

  using Live = LivePlanner<serve::ServingOracle>;

  std::vector<PairSpec> pairs_;
  util::Rng rng_;
  std::vector<Point> points_;
  std::shared_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::PredictionService> service_;
  std::vector<std::unique_ptr<Live>> live_;
};

/// cluster_search: GPT-3 on both platforms through ClusterOracle -> Router
/// (R=2) -> two in-process workers (one service thread each) over Unix
/// sockets. Worker caches are cleared before each search so the forwards run
/// remotely; encodings stay warm on both sides. Plans must be bit-equal to
/// the in-process ServingOracle plan.
class ClusterSearch final : public Workload {
 public:
  ClusterSearch(std::uint64_t seed, std::string run_dir) : run_dir_(std::move(run_dir)) {
    for (PairSpec& pair : Fig10Pairs()) {
      if (pair.benchmark.name == bench::PaperGpt3().name) pairs_.push_back(std::move(pair));
    }
    start_ = static_cast<std::size_t>(util::Rng(seed).NextBelow(pairs_.size()));
  }

  void BuildReferences(const std::string& dir) override {
    auto registry = std::make_shared<serve::ModelRegistry>();
    for (const PairSpec& pair : pairs_) LoadPredictors(*registry, pair, dir);
    serve::ServiceOptions options;
    options.threads = 0;
    serve::PredictionService service(registry, options);
    for (const PairSpec& pair : pairs_) {
      const TapeTable table(pair, dir);
      references_.push_back(
          table.Plan(MakeOptimizer(pair, pair.config.num_microbatches, 0), pair.tag));
      core::PlanSearch search(pair.benchmark, pair.cluster, pair.config);
      const serve::ServingOracle oracle(
          service, search.Meshes(), MeshKeys(pair),
          [&search](ir::StageSlice s) -> const graph::EncodedGraph& {
            return search.EncodedFor(s);
          },
          search.EffectiveMaxSpan());
      in_process_.push_back(search.MakeOptimizer().Optimize(oracle.AsBatchOracle()));
    }
  }

  void SetUp(const std::string& dir) override {
    registry_ = std::make_shared<serve::ModelRegistry>();
    for (const PairSpec& pair : pairs_) LoadPredictors(*registry_, pair, dir);
    ++generation_;
    for (std::size_t w = 0; w < 2; ++w) {
      cluster::WorkerOptions options;
      options.listen = cluster::Endpoint::Unix(run_dir_ + "/w" + std::to_string(::getpid()) +
                                               "_" + std::to_string(generation_) + "_" +
                                               std::to_string(w) + ".sock");
      options.benchmark = pairs_.front().benchmark;
      options.registry = registry_;
      options.service.threads = 1;
      auto worker = std::make_unique<cluster::Worker>(std::move(options));
      const fault::Status status = worker->Init();
      if (!status.ok()) throw std::runtime_error("worker failed to start: " + status.ToString());
      worker->Start();
      workers_.push_back(std::move(worker));
    }
    std::vector<cluster::Endpoint> endpoints;
    for (const auto& worker : workers_) endpoints.push_back(worker->BoundEndpoint());
    cluster::RouterOptions router_options;
    router_options.replicas = 2;
    router_options.connect_timeout_ms = 300.0;
    router_options.revive_after_ms = 60000.0;
    router_ = std::make_unique<cluster::Router>(endpoints, router_options);
    for (const PairSpec& pair : pairs_) {
      auto live = std::make_unique<Live>(pair);
      live->oracle = std::make_unique<cluster::ClusterOracle>(
          *router_, live->search.Meshes(), MeshKeys(pair), live->tap.Encoder(),
          live->search.EffectiveMaxSpan());
      live_.push_back(std::move(live));
    }
    // Two warm-up searches: the first also opens the router's connections
    // and grows the workers' per-thread buffers.
    for (int round = 0; round < 2; ++round) (void)Search(0, false);
  }

  Outcome Search(std::size_t /*i*/, bool traced) override {
    for (const auto& worker : workers_) worker->Service()->ClearCache();
    Probe probe{nullptr, router_.get(), {}};
    for (const auto& worker : workers_) probe.workers.push_back(worker.get());
    const Snapshot before = probe.Take();
    std::uint64_t degraded_before = 0;
    for (const auto& live : live_) degraded_before += live->oracle->Stats().degraded;

    Outcome out;
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      PlanResult& result = out.plans.emplace_back();
      result.key = pairs_[p].tag;
      result.reference = &references_[p];
    }
    Timed(out, [&] {
      for (std::size_t k = 0; k < pairs_.size(); ++k) {
        const std::size_t p = (start_ + k) % pairs_.size();
        Live& live = *live_[p];
        PlanResult& result = out.plans[p];
        const parallel::InterOpOptimizer optimizer = live.search.MakeOptimizer();
        result.plan =
            Optimize(optimizer, live.oracle->AsBatchOracle(), "cluster.oracle", out.counts);
        result.true_latency_s =
            Deploy(live.search, optimizer, result.plan, live.deployed, out.counts);
      }
    });
    AddDelta(before, probe.Take(), out.counts);

    std::uint64_t degraded = 0;
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      Live& live = *live_[p];
      live.tap.Drain(out.counts);
      degraded += live.oracle->Stats().degraded;
      if (traced) MeasureForwards(live.search, *registry_, MeshKeys(pairs_[p]), out.counts);
    }
    degraded -= degraded_before;
    if (out.counts["cluster.unanswered"] != 0.0 || degraded != 0) {
      out.failure = "cluster left " + std::to_string(out.counts["cluster.unanswered"]) +
                    " queries unanswered, " + std::to_string(degraded) + " degraded";
      return out;
    }
    for (std::size_t p = 0; p < in_process_.size(); ++p) {
      if (std::string why = CheckPlanBitEqual(out.plans[p].plan, in_process_[p]); !why.empty()) {
        out.failure = out.plans[p].key + " differs from the in-process plan: " + why;
        break;
      }
    }
    return out;
  }

  void Finish(Counts& counts) override {
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    for (const auto& worker : workers_) {
      p50 = std::max(p50, worker->ServiceLatencyPercentileUs(0.50));
      p99 = std::max(p99, worker->ServiceLatencyPercentileUs(0.99));
    }
    counts["cluster.worker_service_us_p50"] = static_cast<double>(p50);
    counts["cluster.worker_service_us_p99"] = static_cast<double>(p99);
  }

  [[nodiscard]] std::size_t ServiceThreads() const override { return 1; }

  void TearDown() override {
    live_.clear();
    router_.reset();
    for (const auto& worker : workers_) worker->Stop();
    workers_.clear();
    registry_.reset();
  }

 private:
  using Live = LivePlanner<cluster::ClusterOracle>;

  std::string run_dir_;
  std::vector<PairSpec> pairs_;
  std::size_t start_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<parallel::PipelinePlan> references_;
  std::vector<parallel::PipelinePlan> in_process_;
  std::shared_ptr<serve::ModelRegistry> registry_;
  std::vector<std::unique_ptr<cluster::Worker>> workers_;
  std::unique_ptr<cluster::Router> router_;
  std::vector<std::unique_ptr<Live>> live_;
};

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "search_cold") return std::make_unique<SearchCold>(options.seed);
  if (options.workload == "whatif_warm") return std::make_unique<WhatIfWarm>(options.seed);
  if (options.workload == "cluster_search") {
    return std::make_unique<ClusterSearch>(options.seed, options.run_dir);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

/// First plan and deployed latency seen per search input.
struct FirstSeen {
  parallel::PipelinePlan plan;
  double true_latency_s = 0.0;
};

std::string VerifyPlan(const PlanResult& result, std::map<std::string, FirstSeen>& first) {
  if (result.reference == nullptr) return "no reference";
  if (std::string why = CheckPlanMatches(result.plan, *result.reference); !why.empty()) {
    return "differs from the reference: " + why;
  }
  if (!std::isfinite(result.true_latency_s)) return "deployed plan has no finite latency";
  const auto [it, fresh] =
      first.try_emplace(result.key, FirstSeen{result.plan, result.true_latency_s});
  if (fresh) return {};
  if (std::string why = CheckPlanBitEqual(result.plan, it->second.plan); !why.empty()) {
    return "differs from the first timed plan: " + why;
  }
  if (result.true_latency_s != it->second.true_latency_s) {
    return "deployed latency differs from the first timed search";
  }
  return {};
}

/// The search's input, for grouping samples: its plan keys joined by '+'.
std::string SearchKey(const Outcome& out) {
  std::string key;
  for (const PlanResult& result : out.plans) key += (key.empty() ? "" : "+") + result.key;
  return key.empty() ? "search" : key;
}

/// Empty when the search passed every check; else "<key>: <reason>".
std::string Verify(const Outcome& out, std::map<std::string, FirstSeen>& first) {
  if (!out.failure.empty()) return SearchKey(out) + ": " + out.failure;
  if (out.plans.empty()) return "search produced no plan";
  for (const PlanResult& result : out.plans) {
    if (std::string why = VerifyPlan(result, first); !why.empty()) return result.key + ": " + why;
  }
  return {};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of a traced run: self times averaged over the traced
/// searches, counts averaged over them, ratios of the summed counts.
std::vector<Metric> LayerMetrics(const std::vector<SpanEvent>& events, Counts counts,
                                 std::size_t traced, double cpu_ms_per_search,
                                 double overhead_pct) {
  std::map<std::string, double> self_ms;
  for (const auto& [name, ns] : SelfTimeByNameNs(events)) {
    self_ms[name] = static_cast<double>(ns) / 1e6;
  }
  double search_ms = 0.0;
  for (const SpanEvent& e : events) {
    if (std::string(e.name) == "search") {
      search_ms += static_cast<double>(e.end_ns - e.start_ns) / 1e6;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(traced, 1));
  const auto mean = [n](double total) { return total / n; };
  const double forward_ms = counts["compile.forward_ms"];
  std::vector<Metric> m;
  m.push_back({"ir.build_ms", mean(self_ms["ir.build"]), "ms"});
  m.push_back({"ir.stages_built", mean(counts["ir.stages_built"]), "count"});
  m.push_back({"graph.encode_ms", mean(self_ms["graph.encode"]), "ms"});
  m.push_back({"graph.stages_encoded", mean(counts["graph.stages_encoded"]), "count"});
  m.push_back({"graph.nodes_encoded", mean(counts["graph.nodes_encoded"]), "count"});
  m.push_back({"compile.forward_ms", mean(forward_ms), "ms"});
  m.push_back({"compile.forward_us_per_query",
               1e3 * Ratio(forward_ms, counts["compile.forward_queries"]), "us"});
  m.push_back({"compile.program_cache_hit_ratio",
               Ratio(counts["compile.program_cache_hits"],
                     counts["compile.program_cache_hits"] + counts["compile.program_cache_misses"]),
               "ratio"});
  m.push_back({"compile.batched_forwards", mean(counts["compile.batched_forwards"]), "count"});
  m.push_back(
      {"compile.interleaved_forwards", mean(counts["compile.interleaved_forwards"]), "count"});
  m.push_back({"compile.autotune_sweeps", mean(counts["compile.autotune_sweeps"]), "count"});
  // Not clamped: where the service's own work is smaller than the outside
  // estimate's error, this reads slightly negative rather than a false 0.
  m.push_back({"serve.oracle_self_ms",
               self_ms.count("serve.oracle") != 0 ? mean(self_ms["serve.oracle"] - forward_ms)
                                                  : 0.0,
               "ms"});
  m.push_back({"serve.queries", mean(counts["serve.queries"]), "count"});
  m.push_back({"serve.forwards", mean(counts["serve.forwards"]), "count"});
  m.push_back({"serve.dedup_ratio", Ratio(counts["serve.forwards"], counts["serve.queries"]),
               "ratio"});
  m.push_back({"serve.cache_hit_ratio",
               Ratio(counts["serve.cache_hits"],
                     counts["serve.cache_hits"] + counts["serve.cache_misses"]),
               "ratio"});
  m.push_back({"serve.coalesced", mean(counts["serve.coalesced"]), "count"});
  m.push_back({"parallel.inter_op_ms", mean(self_ms["parallel.inter_op"]), "ms"});
  m.push_back({"parallel.table_cells", mean(counts["parallel.table_cells"]), "count"});
  m.push_back({"parallel.intra_op_ms", mean(self_ms["parallel.intra_op"]), "ms"});
  m.push_back(
      {"parallel.intra_op_compiles", mean(counts["parallel.intra_op_compiles"]), "count"});
  m.push_back({"cluster.oracle_self_ms", mean(self_ms["cluster.oracle"]), "ms"});
  m.push_back({"cluster.worker_service_us_p50", counts["cluster.worker_service_us_p50"], "us"});
  m.push_back({"cluster.worker_service_us_p99", counts["cluster.worker_service_us_p99"], "us"});
  m.push_back({"cluster.router_queries", mean(counts["cluster.router_queries"]), "count"});
  m.push_back({"cluster.coalesced", mean(counts["cluster.coalesced"]), "count"});
  m.push_back({"cluster.failovers", mean(counts["cluster.failovers"]), "count"});
  m.push_back({"cluster.unanswered", mean(counts["cluster.unanswered"]), "count"});
  m.push_back({"cluster.worker_forwards", mean(counts["cluster.worker_forwards"]), "count"});
  m.push_back({"process.cpu_ms_per_search", cpu_ms_per_search, "ms"});
  m.push_back({"process.trace_overhead_pct", overhead_pct, "%"});
  m.push_back({"process.attributed_pct",
               100.0 * Ratio(search_ms - self_ms["search"], search_ms), "%"});
  return m;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"search_cold", "whatif_warm", "cluster_search"};
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  workload->BuildReferences(options.predictors_dir);

  const auto timed_setup = [&workload, &options] {
    const auto start = Clock::now();
    workload->SetUp(options.predictors_dir);
    return MsSince(start) / 1e3;
  };
  std::vector<double> setup_s{timed_setup()};

  RunReport report;
  report.service_threads = workload->ServiceThreads();
  std::map<std::string, FirstSeen> first;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> plain_ms_by_key;
  std::vector<std::tuple<std::string, double, bool>> samples;  // key, wall ms, traced
  double plain_cpu_ms = 0.0;
  Counts traced_counts;
  const auto loop_start = Clock::now();
  for (std::size_t i = 0; i == 0 || MsSince(loop_start) < options.seconds * 1e3; ++i) {
    // A traced run alternates untraced and traced searches, so the overhead
    // compares like with like.
    const bool traced = options.trace && (i / 2) % 2 == 1;
    SpanRecorder::SetRequest(i + 1);
    SpanRecorder::Enable(traced);
    Outcome out;
    try {
      out = workload->Search(i, traced);
    } catch (const std::exception& e) {
      out.failure = std::string("threw: ") + e.what();
    }
    SpanRecorder::Enable(false);
    ++report.attempted;
    const std::string why = Verify(out, first);
    if (!why.empty()) {
      ++report.failed;
      if (report.failures.size() < 5) report.failures.push_back(why);
    }
    const std::string key = SearchKey(out);
    samples.emplace_back(key, out.wall_ms, traced);
    if (traced) {
      traced_ms.push_back(out.wall_ms);
      for (const auto& [name, value] : out.counts) traced_counts[name] += value;
    } else {
      plain_ms.push_back(out.wall_ms);
      plain_ms_by_key[key].push_back(out.wall_ms);
      plain_cpu_ms += out.cpu_ms;
    }
  }

  // Read before the repeated set-ups below: set-ups torn down and rebuilt
  // leave allocator state that would make the peak vary from run to run.
  const double peak_rss_mb = PeakRssMb();
  if (!options.trace) {
    // The remaining set-ups for the setup_s median, each from a torn-down
    // workload with its freed memory handed back to the system.
    for (int r = 1; r < kSetupRepeats; ++r) {
      workload->TearDown();
      malloc_trim(0);
      setup_s.push_back(timed_setup());
    }
  }

  {
    // Every sample of the run, for looking past the summary statistics.
    std::ofstream out(options.run_dir + "/samples-" + options.workload + "-" +
                      std::to_string(options.seed) + (options.trace ? "-traced" : "") + ".json");
    out.precision(17);
    out << "{\"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) out << (i ? ", " : "") << setup_s[i];
    out << "],\n\"searches\": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& [key, ms, was_traced] = samples[i];
      out << (i ? ",\n" : "\n") << "[\"" << key << "\", " << ms << ", "
          << (was_traced ? "true" : "false") << "]";
    }
    out << "]}\n";
  }

  const double tail = TailPercentile(plain_ms.size());
  report.notes.push_back("searches=" + std::to_string(plain_ms.size()) +
                         " tail_percentile=" + std::to_string(tail));
  if (plain_ms_by_key.size() <= 3) {
    for (const auto& [key, ms] : plain_ms_by_key) {
      report.notes.push_back(key + ": searches=" + std::to_string(ms.size()) +
                             " p50_ms=" + std::to_string(Quantile(ms, 0.5)));
    }
  }
  if (!options.trace) {
    double total_ms = 0.0;
    for (const double ms : plain_ms) total_ms += ms;
    report.metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"search_ms_p50", Quantile(plain_ms, 0.5), "ms"},
        {"search_ms_p90", Quantile(plain_ms, tail), "ms"},
        {"searches_per_s", 1e3 * Ratio(static_cast<double>(plain_ms.size()), total_ms), "1/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    return report;
  }

  workload->Finish(traced_counts);
  const std::vector<SpanEvent> events = SpanRecorder::Collect();
  {
    const std::string path = options.run_dir + "/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    std::ofstream out(path);
    WriteChromeTrace(events, out);
    report.notes.push_back("chrome_trace=" + path);
  }
  const double plain_p50 = Quantile(plain_ms, 0.5);
  const double overhead_pct = 100.0 * Ratio(Quantile(traced_ms, 0.5) - plain_p50, plain_p50);
  report.notes.push_back("traced_searches=" + std::to_string(traced_ms.size()));
  report.metrics =
      LayerMetrics(events, traced_counts, traced_ms.size(),
                   Ratio(plain_cpu_ms, static_cast<double>(plain_ms.size())), overhead_pct);
  return report;
}

void RegeneratePredictors(const std::string& dir) {
  for (const PairSpec& pair : Fig10Pairs()) {
    core::PlanSearch search(pair.benchmark, pair.cluster, pair.config);
    const core::TrainedMeshPredictors trained =
        search.TrainPredictors(core::PredictorKind::kDagTransformer);
    serve::ModelRegistry registry;
    const std::vector<serve::ModelKey> keys = serve::RegisterMeshPredictors(
        registry, pair.benchmark.name, pair.platform, search.Meshes(), trained);
    for (std::size_t m = 0; m < keys.size(); ++m) {
      registry.SaveToFile(keys[m], CheckpointPath(dir, pair, m));
    }
  }
}

}  // namespace planbench
