// Tests for the predtop::fault subsystem and the degradation ladder it
// enables: deterministic injection, CRC32-hardened checkpoint frames (bit
// flips and truncation in every region), hostile length prefixes, registry
// quarantine with bounded retries, the ThreadPool dispatch hook, and the
// ServingOracle's graceful degradation to the analytical fallback.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "core/dataset.h"
#include "core/regressor.h"
#include "fault/crc32.h"
#include "fault/injector.h"
#include "fault/status.h"
#include "nn/serialize.h"
#include "parallel/inter_op.h"
#include "serve/fallback.h"
#include "serve/oracle.h"
#include "serve/service.h"
#include "util/thread_pool.h"

namespace predtop {
namespace {

/// Every test that configures the global injector goes through this guard so
/// a failing assertion cannot leak injection into later tests.
struct InjectorGuard {
  InjectorGuard(const std::string& spec, std::uint64_t seed = fault::Injector::kDefaultSeed) {
    fault::Injector::Global().Configure(spec, seed);
    fault::Injector::Global().ResetCounters();
  }
  ~InjectorGuard() { fault::Injector::Global().Disable(); }
};

ir::Gpt3Config TinyGptConfig() {
  ir::Gpt3Config config;
  config.seq_len = 64;
  config.hidden = 64;
  config.num_layers = 4;
  config.num_heads = 4;
  config.vocab = 512;
  config.microbatch = 2;
  return config;
}

core::PredictorOptions TinyOptions() {
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 16;
  options.dagt_layers = 1;
  options.dagt_heads = 2;
  options.gcn_dim = 16;
  options.gcn_layers = 2;
  options.gat_dim = 16;
  options.gat_layers = 2;
  return options;
}

/// Serialized tiny (untrained — initialization is deterministic) checkpoint.
std::string TinyCheckpointBytes(core::PredictorKind kind = core::PredictorKind::kGcn) {
  core::LatencyRegressor regressor(kind, TinyOptions());
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  regressor.Save(buffer);
  return buffer.str();
}

void ExpectLoadThrows(const std::string& bytes, const char* context) {
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW((void)core::LatencyRegressor::Load(in), std::runtime_error) << context;
}

// ---- status / error types ----

TEST(Status, DefaultIsOkAndCodesName) {
  EXPECT_TRUE(fault::Status().ok());
  const fault::Status s(fault::StatusCode::kCorruption, "bad crc");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), fault::StatusCode::kCorruption);
  EXPECT_NE(s.ToString().find("bad crc"), std::string::npos);
  EXPECT_STREQ(fault::StatusCodeName(fault::StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
}

TEST(Status, FromCurrentExceptionKeepsTypedCode) {
  const auto capture = [](auto&& thrower) {
    try {
      thrower();
    } catch (...) {
      return fault::StatusFromCurrentException();
    }
    return fault::Status::Ok();
  };
  EXPECT_EQ(capture([] { throw fault::CorruptionError("x"); }).code(),
            fault::StatusCode::kCorruption);
  EXPECT_EQ(capture([] { throw fault::IoError("x"); }).code(), fault::StatusCode::kIoError);
  EXPECT_EQ(capture([] { throw std::runtime_error("x"); }).code(),
            fault::StatusCode::kInternal);
}

// ---- crc32 ----

TEST(Crc32, MatchesKnownVectors) {
  // IEEE 802.3 reference value for the "check" string.
  EXPECT_EQ(fault::Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(fault::Crc32(std::string_view("")), 0u);
  // Incremental == one-shot.
  const std::string_view s("the quick brown fox");
  const std::uint32_t partial = fault::Crc32(s.substr(0, 7));
  EXPECT_EQ(fault::Crc32(s.data() + 7, s.size() - 7, partial), fault::Crc32(s));
}

// ---- injector ----

TEST(Injector, SpecRoundTripAndValidation) {
  const InjectorGuard guard("ckpt_read:0.25;predict_delay_ms:50;predict_delay_p:0.5");
  auto& injector = fault::Injector::Global();
  EXPECT_TRUE(injector.Enabled());
  EXPECT_EQ(injector.SpecString(), "ckpt_read:0.25;predict_delay_ms:50;predict_delay_p:0.5");
  EXPECT_EQ(injector.Value(fault::sites::kPredictDelayMs), 50.0);
  EXPECT_EQ(injector.Value(fault::sites::kPoolDelayMs, -1.0), -1.0);  // absent

  EXPECT_THROW(injector.Configure("not_a_site:0.5"), std::invalid_argument);
  EXPECT_THROW(injector.Configure("ckpt_read"), std::invalid_argument);
  EXPECT_THROW(injector.Configure("ckpt_read:nope"), std::invalid_argument);
  EXPECT_THROW(injector.Configure("ckpt_read:-0.5"), std::invalid_argument);
  EXPECT_THROW(injector.Configure("ckpt_read:0.5;ckpt_read:0.7"), std::invalid_argument);

  injector.Disable();
  EXPECT_FALSE(injector.Enabled());
  EXPECT_EQ(injector.SpecString(), "");
  EXPECT_FALSE(injector.ShouldInject(fault::sites::kCkptRead));
}

TEST(Injector, DecisionsAreDeterministicPerSeed) {
  auto& injector = fault::Injector::Global();
  const auto roll = [&](std::uint64_t seed, int n) {
    const InjectorGuard guard("ckpt_read:0.5", seed);
    std::string fires;
    for (int i = 0; i < n; ++i) {
      fires.push_back(injector.ShouldInject(fault::sites::kCkptRead) ? '1' : '0');
    }
    return fires;
  };
  const std::string a = roll(7, 64);
  EXPECT_EQ(a, roll(7, 64));       // replayable from the seed
  EXPECT_NE(a, roll(8, 64));       // and seed-sensitive
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.5 over 64 rolls fires...
  EXPECT_NE(a.find('0'), std::string::npos);  // ...and also passes
}

TEST(Injector, CountsEvaluationsAndFires) {
  const InjectorGuard guard("ckpt_read:1.0;ckpt_write:0.0");
  auto& injector = fault::Injector::Global();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.ShouldInject(fault::sites::kCkptRead));
    EXPECT_FALSE(injector.ShouldInject(fault::sites::kCkptWrite));
  }
  EXPECT_EQ(injector.Stats(fault::sites::kCkptRead).evaluations, 10u);
  EXPECT_EQ(injector.Stats(fault::sites::kCkptRead).fires, 10u);
  EXPECT_EQ(injector.Stats(fault::sites::kCkptWrite).fires, 0u);
}

TEST(Injector, PoolDelayHookFiresOnDispatch) {
  const InjectorGuard guard("pool_delay_ms:0.01;pool_delay_p:1.0");
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2);
    pool.ParallelFor(16, [&](std::size_t) { count.fetch_add(1); });
    // Check stats after the pool drains: the hook runs when a *worker*
    // dequeues a task, and the caller may finish the loop body first.
  }
  EXPECT_EQ(count.load(), 16);
  EXPECT_GT(fault::Injector::Global().Stats(fault::sites::kPoolDelayMs).fires, 0u);
}

// ---- hardened checkpoint frames ----

TEST(CheckpointFuzz, AnySingleBitFlipIsDetected) {
  // Flip one bit in every frame region — magic, version, length prefix,
  // payload head (kind tag/options), payload middle (weights), payload tail,
  // and the CRC footer. Every flip must surface as a typed failure; none may
  // load "successfully" with silently wrong weights.
  const std::string bytes = TinyCheckpointBytes();
  ASSERT_GT(bytes.size(), 64u);
  const std::size_t offsets[] = {
      0, 2,                              // magic
      4, 7,                              // version
      8, 12, 15,                         // payload length prefix
      16, 20,                            // payload head: transform + stats
      16 + 36,                           // predictor kind tag / options
      bytes.size() / 2,                  // weights
      bytes.size() - 6,                  // payload tail
      bytes.size() - 4, bytes.size() - 1 // CRC footer
  };
  for (const std::size_t offset : offsets) {
    for (const int bit : {0, 6}) {
      std::string corrupt = bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ (1 << bit));
      std::stringstream in(corrupt, std::ios::in | std::ios::binary);
      try {
        (void)core::LatencyRegressor::Load(in);
        FAIL() << "bit " << bit << " at offset " << offset << " loaded cleanly";
      } catch (const fault::FaultError&) {
        // Expected: typed corruption/IO error.
      }
    }
  }
}

TEST(CheckpointFuzz, TruncationAtEveryRegionIsDetected) {
  const std::string bytes = TinyCheckpointBytes(core::PredictorKind::kGat);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{8}, std::size_t{12},
        std::size_t{16}, std::size_t{40}, bytes.size() / 4, bytes.size() / 2,
        bytes.size() - 5, bytes.size() - 1}) {
    ExpectLoadThrows(bytes.substr(0, keep), "truncated frame");
  }
}

TEST(CheckpointFuzz, HostileLengthPrefixesAreRejectedBeforeAllocation) {
  // A frame claiming a payload of 2^62 bytes (far beyond the stream) must be
  // rejected by the length-vs-remaining check, not by an allocation attempt.
  std::string bytes = TinyCheckpointBytes();
  const std::uint64_t hostile = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + 8, &hostile, sizeof hostile);
  ExpectLoadThrows(bytes, "hostile payload length");

  // Claiming *less* than the real payload leaves trailing bytes / fails the
  // CRC — also rejected.
  std::string short_claim = TinyCheckpointBytes();
  const std::uint64_t too_small = 8;
  std::memcpy(short_claim.data() + 8, &too_small, sizeof too_small);
  ExpectLoadThrows(short_claim, "undersized payload length");
}

TEST(CheckpointFuzz, SerializeGuardsRejectHostileTensorClaims) {
  // nn::ReadTensor validates rank and per-dimension sizes against the
  // remaining stream before allocating.
  std::stringstream hostile_rank(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t rank = 1000;
  hostile_rank.write(reinterpret_cast<const char*>(&rank), sizeof rank);
  EXPECT_THROW((void)nn::ReadTensor(hostile_rank), std::runtime_error);

  // Two plausible dims whose product claims terabytes the stream lacks.
  std::stringstream hostile_dims(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t rank2 = 2;
  const std::int64_t dim = std::int64_t{1} << 20;
  hostile_dims.write(reinterpret_cast<const char*>(&rank2), sizeof rank2);
  hostile_dims.write(reinterpret_cast<const char*>(&dim), sizeof dim);
  hostile_dims.write(reinterpret_cast<const char*>(&dim), sizeof dim);
  EXPECT_THROW((void)nn::ReadTensor(hostile_dims), std::runtime_error);

  // A dim whose running product overflows u64 outright.
  std::stringstream overflow_dims(std::ios::in | std::ios::out | std::ios::binary);
  const std::int64_t huge = std::int64_t{1} << 62;
  overflow_dims.write(reinterpret_cast<const char*>(&rank2), sizeof rank2);
  overflow_dims.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  overflow_dims.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  EXPECT_THROW((void)nn::ReadTensor(overflow_dims), std::runtime_error);

  // A string length under the plausibility cap but beyond the stream's end.
  std::stringstream hostile_name(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t name_len = 1u << 19;
  hostile_name.write(reinterpret_cast<const char*>(&name_len), sizeof name_len);
  EXPECT_THROW((void)nn::ReadString(hostile_name), std::runtime_error);
  // And one over the cap entirely.
  std::stringstream huge_name(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t over_cap = 1u << 24;
  huge_name.write(reinterpret_cast<const char*>(&over_cap), sizeof over_cap);
  EXPECT_THROW((void)nn::ReadString(huge_name), std::runtime_error);
}

TEST(Checkpoint, InjectedWriteFaultLeavesNoTornFile) {
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "predtop_fault_write.ptck").string();
  core::LatencyRegressor regressor(core::PredictorKind::kGcn, TinyOptions());
  regressor.Save(path);  // healthy baseline on disk
  const auto baseline_size = fs::file_size(path);

  {
    const InjectorGuard guard("ckpt_write:1.0");
    EXPECT_THROW(regressor.Save(path), fault::IoError);
  }
  // The failed save removed its temp file and never touched the target.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(fs::file_size(path), baseline_size);
  (void)core::LatencyRegressor::Load(path);  // still a valid frame
  std::remove(path.c_str());
}

TEST(Checkpoint, InjectedReadFaultIsTypedIoError) {
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "predtop_fault_read.ptck").string();
  core::LatencyRegressor regressor(core::PredictorKind::kGcn, TinyOptions());
  regressor.Save(path);
  {
    const InjectorGuard guard("ckpt_read:1.0");
    EXPECT_THROW((void)core::LatencyRegressor::Load(path), fault::IoError);
  }
  (void)core::LatencyRegressor::Load(path);  // fine once injection is off
  std::remove(path.c_str());
}

// ---- registry quarantine + retries ----

TEST(RegistryQuarantine, CorruptPathQuarantinesAfterBoundedRetries) {
  namespace fs = std::filesystem;
  const std::string good = (fs::temp_directory_path() / "predtop_q_good.ptck").string();
  const std::string corrupt = (fs::temp_directory_path() / "predtop_q_bad.ptck").string();
  core::LatencyRegressor regressor(core::PredictorKind::kGcn, TinyOptions());
  regressor.Save(good);
  {
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  serve::ModelRegistry registry;
  const serve::ModelKey key{"gpt3", "platform1", sim::Mesh{1, 2}, {}};
  serve::ModelRegistry::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(0);

  const fault::Status first = registry.TryRegisterFromFile(key, corrupt, retry);
  EXPECT_EQ(first.code(), fault::StatusCode::kCorruption);
  EXPECT_EQ(registry.Find(key), nullptr);  // strong guarantee: nothing registered
  ASSERT_EQ(registry.Quarantined().size(), 1u);
  EXPECT_EQ(registry.Quarantined()[0].first, corrupt);

  // Quarantined: refused immediately with kUnavailable, no further retries.
  const fault::Status second = registry.TryRegisterFromFile(key, corrupt, retry);
  EXPECT_EQ(second.code(), fault::StatusCode::kUnavailable);

  // The good path is unaffected, and clearing the quarantine re-admits the
  // (now repaired) bad path.
  EXPECT_TRUE(registry.TryRegisterFromFile(key, good, retry).ok());
  EXPECT_NE(registry.Find(key), nullptr);
  registry.ClearQuarantine();
  fs::copy_file(good, corrupt, fs::copy_options::overwrite_existing);
  EXPECT_TRUE(registry.TryRegisterFromFile(key, corrupt, retry).ok());
  std::remove(good.c_str());
  std::remove(corrupt.c_str());
}

TEST(RegistryQuarantine, RetriesExactlyMaxAttemptsUnderInjection) {
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "predtop_q_retry.ptck").string();
  core::LatencyRegressor regressor(core::PredictorKind::kGcn, TinyOptions());
  regressor.Save(path);

  const InjectorGuard guard("ckpt_read:1.0");  // every read attempt fails
  serve::ModelRegistry registry;
  const serve::ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  serve::ModelRegistry::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(0);
  const fault::Status status = registry.TryRegisterFromFile(key, path, retry);
  EXPECT_EQ(status.code(), fault::StatusCode::kIoError);
  EXPECT_EQ(fault::Injector::Global().Stats(fault::sites::kCkptRead).evaluations, 4u);
  std::remove(path.c_str());
}

TEST(RegistryQuarantine, TransientInjectedFaultSucceedsWithinRetryBudget) {
  // p=0.5: with 8 attempts the odds every read fails are 1/256 per seed, and
  // the decision sequence is deterministic — seed 3 is known to pass within
  // the budget (asserted, so a future sequence change fails loudly here).
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "predtop_q_transient.ptck").string();
  core::LatencyRegressor regressor(core::PredictorKind::kGcn, TinyOptions());
  regressor.Save(path);

  const InjectorGuard guard("ckpt_read:0.5", /*seed=*/3);
  serve::ModelRegistry registry;
  const serve::ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  serve::ModelRegistry::RetryPolicy retry;
  retry.max_attempts = 8;
  retry.initial_backoff = std::chrono::milliseconds(0);
  EXPECT_TRUE(registry.TryRegisterFromFile(key, path, retry).ok());
  EXPECT_NE(registry.Find(key), nullptr);
  EXPECT_TRUE(registry.Quarantined().empty());
  std::remove(path.c_str());
}

// ---- service injection + degradation ladder ----

/// Shared serving fixture: one registered (untrained) model, one encoded
/// stage per slice, and a fallback oracle over the benchmark's programs.
struct ServingFixture {
  ServingFixture() : benchmark(core::Gpt3Benchmark(TinyGptConfig())) {
    registry = std::make_shared<serve::ModelRegistry>();
    key = serve::ModelKey{"gpt3", "platform1", sim::Mesh{1, 2}, {}};
    registry->Register(key, std::make_shared<core::LatencyRegressor>(
                                core::PredictorKind::kGcn, TinyOptions()));
    service = std::make_unique<serve::PredictionService>(registry);
    fallback = std::make_shared<serve::FallbackOracle>(
        sim::Platform1().device, [this](ir::StageSlice s) -> const ir::StageProgram& {
          return Program(s);
        });
  }

  const ir::StageProgram& Program(ir::StageSlice s) {
    const auto k = std::make_pair(s.first_layer, s.last_layer);
    if (const auto it = programs.find(k); it != programs.end()) return it->second;
    return programs.emplace(k, benchmark.build_stage(s)).first->second;
  }
  const graph::EncodedGraph& Encoded(ir::StageSlice s) {
    const auto k = std::make_pair(s.first_layer, s.last_layer);
    if (const auto it = encoded.find(k); it != encoded.end()) return it->second;
    return encoded.emplace(k, core::EncodeStage(Program(s))).first->second;
  }
  serve::StageEncoder Encoder() {
    return [this](ir::StageSlice s) -> const graph::EncodedGraph& { return Encoded(s); };
  }

  core::BenchmarkModel benchmark;
  std::shared_ptr<serve::ModelRegistry> registry;
  serve::ModelKey key;
  std::unique_ptr<serve::PredictionService> service;
  std::shared_ptr<serve::FallbackOracle> fallback;
  std::map<std::pair<std::int32_t, std::int32_t>, ir::StageProgram> programs;
  std::map<std::pair<std::int32_t, std::int32_t>, graph::EncodedGraph> encoded;
};

TEST(Service, InjectedNanIsNeverCached) {
  ServingFixture fx;
  const graph::EncodedGraph& g = fx.Encoded({0, 2});
  {
    const InjectorGuard guard("predict_nan:1.0");
    EXPECT_TRUE(std::isnan(fx.service->Predict(fx.key, g)));
  }
  // The poisoned answer was not cached, so the next query re-forwards and
  // succeeds.
  const double healthy = fx.service->Predict(fx.key, g);
  EXPECT_TRUE(std::isfinite(healthy));
  EXPECT_EQ(fx.service->Stats().forwards, 2u);
  // And a healthy value *is* cached.
  EXPECT_EQ(fx.service->Predict(fx.key, g), healthy);
  EXPECT_EQ(fx.service->Stats().forwards, 2u);
}

TEST(FallbackOracle, AnalyticalEstimateIsFiniteAndTagged) {
  ServingFixture fx;
  const parallel::StageLatencyResult estimate =
      fx.fallback->Estimate(ir::StageSlice{0, 2}, sim::Mesh{1, 2});
  EXPECT_TRUE(std::isfinite(estimate.latency_s));
  EXPECT_GT(estimate.latency_s, 0.0);
  EXPECT_TRUE(estimate.degraded);
  EXPECT_EQ(estimate.config.Degree(), 2);  // a concrete config for the mesh
}

TEST(ServingOracle, MissingModelDegradesToFallback) {
  ServingFixture fx;
  serve::ServingOracleOptions options;
  options.fallback = fx.fallback;
  // No model registered for mesh {1,1}: the learned rung throws, the ladder
  // answers analytically.
  const serve::ModelKey missing{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  const serve::ServingOracle oracle(*fx.service, {sim::Mesh{1, 1}}, {missing}, fx.Encoder(),
                                    /*max_span=*/0, options);
  const parallel::StageLatencyResult result = oracle(ir::StageSlice{0, 2}, sim::Mesh{1, 1});
  EXPECT_TRUE(std::isfinite(result.latency_s));
  EXPECT_TRUE(result.degraded);
  const serve::OracleStats stats = oracle.Stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.degraded, 1u);
}

TEST(ServingOracle, NanPredictionRetriesThenDegrades) {
  ServingFixture fx;
  serve::ServingOracleOptions options;
  options.max_attempts = 3;
  options.fallback = fx.fallback;
  const serve::ServingOracle oracle(*fx.service, {fx.key.mesh}, {fx.key}, fx.Encoder(),
                                    /*max_span=*/0, options);
  {
    const InjectorGuard guard("predict_nan:1.0");  // all three attempts poisoned
    const parallel::StageLatencyResult result = oracle(ir::StageSlice{0, 2}, fx.key.mesh);
    EXPECT_TRUE(std::isfinite(result.latency_s));
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(oracle.Stats().degraded, 1u);
  }
  // After the outage the same query answers cleanly at the top rung — the
  // poisoned answers were never cached, so nothing sticky remains.
  const parallel::StageLatencyResult healthy = oracle(ir::StageSlice{0, 2}, fx.key.mesh);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_TRUE(std::isfinite(healthy.latency_s));
}

TEST(ServingOracle, DeadlineOverrunDegrades) {
  ServingFixture fx;
  serve::ServingOracleOptions options;
  options.deadline_ms = 0.5;
  options.fallback = fx.fallback;
  const serve::ServingOracle oracle(*fx.service, {fx.key.mesh}, {fx.key}, fx.Encoder(),
                                    /*max_span=*/0, options);
  {
    const InjectorGuard guard("predict_delay_ms:20;predict_delay_p:1.0");
    const parallel::StageLatencyResult late = oracle(ir::StageSlice{0, 2}, fx.key.mesh);
    EXPECT_TRUE(late.degraded);
    EXPECT_TRUE(std::isfinite(late.latency_s));
    EXPECT_EQ(oracle.Stats().degraded, 1u);
  }
  // A cached (fast) answer afterwards meets the deadline.
  const parallel::StageLatencyResult fast = oracle(ir::StageSlice{0, 2}, fx.key.mesh);
  EXPECT_FALSE(fast.degraded);
}

TEST(ServingOracle, PlanSearchCompletesUnderInjectionAndReportsDegradedFraction) {
  // The fig10-style drill in miniature: a 4-layer search with every
  // prediction poisoned must still complete with a finite, valid plan priced
  // entirely by the analytical fallback.
  ServingFixture fx;
  serve::ServingOracleOptions options;
  options.fallback = fx.fallback;
  const std::vector<sim::Mesh> meshes{sim::Mesh{1, 1}, sim::Mesh{1, 2}};
  const serve::ModelKey missing{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  const serve::ServingOracle oracle(*fx.service, meshes, {missing, fx.key}, fx.Encoder(),
                                    /*max_span=*/0, options);

  parallel::InterOpOptions opt;
  opt.num_layers = 4;
  opt.num_microbatches = 4;
  opt.submeshes = meshes;
  const parallel::InterOpOptimizer optimizer(sim::Platform1(), opt);

  const InjectorGuard guard("predict_nan:1.0");  // the learned rung never answers
  const parallel::PipelinePlan plan = optimizer.Optimize(oracle.AsBatchOracle());
  ASSERT_TRUE(plan.Valid());
  EXPECT_TRUE(std::isfinite(plan.iteration_latency_s));
  for (const parallel::PipelineStageChoice& stage : plan.stages) {
    EXPECT_TRUE(stage.degraded);  // every priced cell came from the fallback
  }
  const serve::OracleStats stats = oracle.Stats();
  EXPECT_GT(stats.queries, 0u);
  EXPECT_EQ(stats.degraded, stats.queries);  // degraded fraction = 100%
}

TEST(ServingOracle, ModelNanIsReportedAndDegradesToFallback) {
  // Regression: the latency clamp used to be std::max(1e-6, pred), which
  // maps a NaN forward to a 1 us stage, so a model producing NaN never
  // reached the finite-only checks below it. A NaN weight must surface as a
  // NaN prediction on every path, and the oracle must answer the stage from
  // the fallback, tagged degraded.
  ServingFixture fx;
  const std::shared_ptr<core::LatencyRegressor> model = fx.registry->Find(fx.key);
  ASSERT_NE(model, nullptr);
  std::vector<nn::NamedParameter> params = model->Model().NamedParameters();
  ASSERT_EQ(params.back().name, "head.layers.1.bias");
  for (float& w : params.back().variable->mutable_value().data()) {
    w = std::numeric_limits<float>::quiet_NaN();
  }
  nn::BumpParameterEpoch();  // weights changed in place: drop the packed snapshots

  const graph::EncodedGraph& g = fx.Encoded({0, 2});
  EXPECT_TRUE(std::isnan(model->PredictSeconds(g)));
  EXPECT_TRUE(std::isnan(model->PredictSecondsTape(g)));
  const std::vector<const graph::EncodedGraph*> batch{&g};
  EXPECT_TRUE(std::isnan(model->PredictBatch(batch).front()));
  EXPECT_TRUE(std::isnan(fx.service->Predict(fx.key, g)));

  serve::ServingOracleOptions options;
  options.fallback = fx.fallback;
  const serve::ServingOracle oracle(*fx.service, {fx.key.mesh}, {fx.key}, fx.Encoder(),
                                    /*max_span=*/0, options);
  const parallel::StageLatencyResult scalar = oracle(ir::StageSlice{0, 2}, fx.key.mesh);
  EXPECT_TRUE(std::isfinite(scalar.latency_s));
  EXPECT_TRUE(scalar.degraded);
  const std::vector<parallel::StageQuery> queries{{ir::StageSlice{0, 2}, fx.key.mesh}};
  const std::vector<parallel::StageLatencyResult> batched = oracle.PredictBatch(queries);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_TRUE(std::isfinite(batched[0].latency_s));
  EXPECT_TRUE(batched[0].degraded);
  EXPECT_EQ(oracle.Stats().degraded, 2u);
}

TEST(ServingOracle, DisabledInjectionIsBitIdenticalToLegacyPath) {
  // With no options and no injection, the hardened oracle must answer
  // exactly like the seed implementation: same values, exceptions propagate.
  ServingFixture fx;
  const serve::ServingOracle hardened(*fx.service, {fx.key.mesh}, {fx.key}, fx.Encoder());
  const double direct = fx.registry->Find(fx.key)->PredictSeconds(fx.Encoded({0, 2}));
  EXPECT_EQ(hardened(ir::StageSlice{0, 2}, fx.key.mesh).latency_s, direct);
  EXPECT_FALSE(hardened(ir::StageSlice{0, 2}, fx.key.mesh).degraded);

  const serve::ModelKey missing{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  const serve::ServingOracle no_fallback(*fx.service, {sim::Mesh{1, 1}}, {missing},
                                         fx.Encoder());
  EXPECT_THROW((void)no_fallback(ir::StageSlice{0, 2}, sim::Mesh{1, 1}),
               std::runtime_error);
}

}  // namespace
}  // namespace predtop
