#include "cluster/worker.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "ir/models.h"
#include "util/env.h"
#include "util/timer.h"

namespace predtop::cluster {

Worker::Worker(WorkerOptions options)
    : options_(std::move(options)), stages_(options_.benchmark) {}

Worker::~Worker() { Stop(); }

fault::Status Worker::Init() {
  registry_ = options_.registry ? options_.registry
                                : std::make_shared<serve::ModelRegistry>();
  for (const WorkerModelSpec& spec : options_.models) {
    // Fail fast, but typed: a missing/corrupt checkpoint quarantines the
    // path and surfaces as the Status instead of an uncaught exception.
    const fault::Status status =
        registry_->TryRegisterFromFile(spec.key, spec.ptck_path, options_.retry);
    if (!status.ok()) return status;
  }
  if (registry_->Size() == 0) {
    return {fault::StatusCode::kInvalidArgument, "cluster worker has no models to serve"};
  }
  service_ = std::make_unique<serve::PredictionService>(registry_, options_.service);
  try {
    listener_ = Listener(options_.listen);
  } catch (...) {
    return fault::StatusFromCurrentException();
  }
  initialized_ = true;
  return fault::Status::Ok();
}

void Worker::Run() {
  if (!initialized_) throw std::logic_error("Worker::Run before a successful Init");
  while (!stop_.load(std::memory_order_acquire)) {
    Socket client = listener_.Accept(/*timeout_ms=*/100.0);
    // Reap threads of connections that have closed — without this the
    // thread table (and its stacks) grows monotonically until shutdown.
    ReapFinishedConnections();
    if (!client.Valid()) continue;
    const std::scoped_lock lock(threads_mutex_);
    if (stop_.load(std::memory_order_acquire)) break;
    // Register the fd under the same lock that spawns the thread, so a
    // concurrent RequestStop() can never miss an in-flight connection.
    live_fds_.push_back(client.Fd());
    const std::uint64_t serial = next_connection_serial_++;
    // Connection admission: over budget the connection still serves (the
    // supervisor's health probes must get through) but predicts on it
    // fast-reject with kOverloaded.
    const bool over_budget = options_.max_connections > 0 &&
                             connection_threads_.size() >= options_.max_connections;
    connection_threads_.emplace(
        serial, std::thread(
                    [this, serial, over_budget](Socket socket) {
                      ServeConnection(std::move(socket), serial, over_budget);
                    },
                    std::move(client)));
  }
  std::vector<std::thread> connections;
  {
    const std::scoped_lock lock(threads_mutex_);
    for (auto& [serial, thread] : connection_threads_) connections.push_back(std::move(thread));
    connection_threads_.clear();
    finished_connections_.clear();
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
}

void Worker::ReapFinishedConnections() {
  std::vector<std::thread> done;
  {
    const std::scoped_lock lock(threads_mutex_);
    for (const std::uint64_t serial : finished_connections_) {
      if (const auto it = connection_threads_.find(serial); it != connection_threads_.end()) {
        done.push_back(std::move(it->second));
        connection_threads_.erase(it);
      }
    }
    finished_connections_.clear();
  }
  // Join outside the lock: the thread may still be on its last instructions
  // between announcing itself finished and returning.
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

std::size_t Worker::ActiveConnectionThreads() const {
  const std::scoped_lock lock(threads_mutex_);
  return connection_threads_.size();
}

void Worker::Start() {
  if (!initialized_) throw std::logic_error("Worker::Start before a successful Init");
  accept_thread_ = std::thread([this] { Run(); });
}

void Worker::RequestStop() noexcept {
  stop_.store(true, std::memory_order_release);
  listener_.Close();
  const std::scoped_lock lock(threads_mutex_);
  for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Worker::Stop() {
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Run() joins connection threads on exit; when Run() was never entered
  // (or is on the caller's stack) there may still be stragglers.
  std::map<std::uint64_t, std::thread> connections;
  {
    const std::scoped_lock lock(threads_mutex_);
    connections.swap(connection_threads_);
    finished_connections_.clear();
  }
  for (auto& [serial, t] : connections) {
    if (t.joinable()) t.join();
  }
}

void Worker::ServeConnection(Socket socket, std::uint64_t serial, bool over_budget) {
  const int my_fd = socket.Fd();  // registered in live_fds_ by the accept loop
  while (!stop_.load(std::memory_order_acquire)) {
    Frame request;
    try {
      request = RecvFrame(socket);
    } catch (const std::exception&) {
      break;  // peer hung up, stop was requested, or the frame was corrupt
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    Frame response;
    if (over_budget && request.type == MessageType::kPredictRequest) {
      shed_overload_.fetch_add(1, std::memory_order_relaxed);
      response = {MessageType::kError, request.request_id,
                  EncodeErrorBody({fault::StatusCode::kOverloaded,
                                   "worker over its connection budget; predicts shed"})};
    } else {
      response = Dispatch(request);
    }
    const bool shutting_down = request.type == MessageType::kShutdownRequest &&
                               response.type == MessageType::kShutdownResponse;
    try {
      SendFrame(socket, response);
    } catch (const std::exception&) {
      break;
    }
    if (shutting_down) {
      RequestStop();
      break;
    }
  }
  const std::scoped_lock lock(threads_mutex_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), my_fd), live_fds_.end());
  // Announce this thread reapable; the accept loop joins it on its next tick.
  finished_connections_.push_back(serial);
}

Frame Worker::Dispatch(const Frame& request) {
  // THD-style dispatch table: every request type maps to a handler; the
  // handler returns the response frame (possibly kError) and never throws.
  try {
    switch (request.type) {
      case MessageType::kPredictRequest:
        return HandlePredict(request);
      case MessageType::kHealthRequest:
        return HandleHealth(request);
      case MessageType::kStatsRequest:
        return HandleStats(request);
      case MessageType::kShutdownRequest:
        return {MessageType::kShutdownResponse, request.request_id, {}};
      default: {
        ErrorBody error{fault::StatusCode::kInvalidArgument,
                        std::string("worker cannot serve message type ") +
                            MessageTypeName(request.type)};
        return {MessageType::kError, request.request_id, EncodeErrorBody(error)};
      }
    }
  } catch (...) {
    const fault::Status status = fault::StatusFromCurrentException();
    return {MessageType::kError, request.request_id,
            EncodeErrorBody({status.code(), status.message()})};
  }
}

const graph::EncodedGraph& Worker::EncodedFor(ir::StageSlice slice) {
  const std::scoped_lock lock(encode_mutex_);
  return stages_.Encoded(slice);
}

Frame Worker::HandlePredict(const Frame& request) {
  // Shed before decode: a request whose deadline has already passed is
  // abandoned on the client side — any CPU spent on it is pure waste.
  if (util::DeadlineExpired(request.deadline_us)) {
    shed_expired_.fetch_add(1, std::memory_order_relaxed);
    return {MessageType::kError, request.request_id,
            EncodeErrorBody({fault::StatusCode::kDeadlineExceeded,
                             "request deadline passed before the worker started it"})};
  }
  // Admission control: bound concurrent predict work so a flood queues at
  // the client (which can fail over or shed) instead of inside this process.
  struct InflightGuard {
    std::atomic<std::size_t>& counter;
    ~InflightGuard() { counter.fetch_sub(1, std::memory_order_release); }
  };
  const std::size_t inflight = inflight_predicts_.fetch_add(1, std::memory_order_acquire) + 1;
  const InflightGuard guard{inflight_predicts_};
  if (options_.max_inflight > 0 && inflight > options_.max_inflight) {
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    return {MessageType::kError, request.request_id,
            EncodeErrorBody({fault::StatusCode::kOverloaded,
                             "worker predict budget exhausted (" +
                                 std::to_string(options_.max_inflight) + " in flight)"})};
  }
  const PredictRequest predict = DecodePredictRequest(request.payload);
  if (!registry_->Find(predict.key)) {
    ErrorBody error{fault::StatusCode::kNotFound,
                    "no model registered for " + predict.key.ToString()};
    return {MessageType::kError, request.request_id, EncodeErrorBody(error)};
  }
  for (const parallel::StageQuery& q : predict.queries) {
    if (q.slice.first_layer < 0 || q.slice.last_layer <= q.slice.first_layer ||
        q.slice.last_layer > options_.benchmark.num_layers) {
      ErrorBody error{fault::StatusCode::kInvalidArgument,
                      "stage slice [" + std::to_string(q.slice.first_layer) + "," +
                          std::to_string(q.slice.last_layer) + ") is outside " +
                          options_.benchmark.name + "'s " +
                          std::to_string(options_.benchmark.num_layers) + " layers"};
      return {MessageType::kError, request.request_id, EncodeErrorBody(error)};
    }
  }
  std::vector<const graph::EncodedGraph*> graphs;
  graphs.reserve(predict.queries.size());
  for (const parallel::StageQuery& q : predict.queries) graphs.push_back(&EncodedFor(q.slice));
  const std::uint64_t started_us = util::SteadyNowUs();
  const std::vector<double> latencies =
      service_->PredictMany(predict.key, graphs, request.deadline_us);
  // Only *served* requests land in the histogram — shed/expired/errored ones
  // are counted by their own counters, not mixed into the latency profile.
  const std::uint64_t elapsed_us = util::SteadyNowUs() - started_us;
  const std::size_t bucket =
      std::min<std::uint64_t>(elapsed_us / kSvcBucketUs, kSvcBuckets - 1);
  svc_histogram_[bucket].fetch_add(1, std::memory_order_relaxed);
  PredictResponse response;
  response.results.reserve(latencies.size());
  for (const double latency : latencies) response.results.push_back({latency, {}, false});
  return {MessageType::kPredictResponse, request.request_id,
          EncodePredictResponse(response)};
}

std::uint64_t Worker::ServiceLatencyPercentileUs(double p) const {
  std::uint64_t total = 0;
  for (const auto& bucket : svc_histogram_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kSvcBuckets; ++b) {
    seen += svc_histogram_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return (b + 1) * kSvcBucketUs;  // bucket upper bound
  }
  return kSvcBuckets * kSvcBucketUs;
}

Frame Worker::HandleHealth(const Frame& request) {
  HealthBody body;
  body.ok = true;
  body.num_models = static_cast<std::uint32_t>(registry_->Size());
  body.detail = options_.benchmark.name + " worker at " + BoundEndpoint().ToString();
  return {MessageType::kHealthResponse, request.request_id, EncodeHealthBody(body)};
}

Frame Worker::HandleStats(const Frame& request) {
  const serve::ServiceStats stats = service_->Stats();
  StatsBody body;
  body.requests = requests_.load(std::memory_order_relaxed);
  body.queries = stats.queries;
  body.forwards = stats.forwards;
  body.coalesced = stats.coalesced;
  body.batches = stats.batches;
  body.batched_queries = stats.batched_queries;
  body.cache_hits = stats.cache.hits;
  body.cache_misses = stats.cache.misses;
  // Worker-level sheds (frame deadline, admission) plus service-level sheds
  // (deadline expired mid-batch, before a forward).
  body.shed_expired = shed_expired_.load(std::memory_order_relaxed) + stats.expired;
  body.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  body.late_completions = stats.late;
  body.svc_p50_us = ServiceLatencyPercentileUs(0.50);
  body.svc_p99_us = ServiceLatencyPercentileUs(0.99);
  body.program_cache_hits = stats.program_cache_hits;
  body.program_cache_misses = stats.program_cache_misses;
  body.batched_forwards = stats.batched_forwards;
  body.interleaved_forwards = stats.interleaved_forwards;
  body.autotune_sweeps = stats.autotune_sweeps;
  return {MessageType::kStatsResponse, request.request_id, EncodeStatsBody(body)};
}

// ---- standalone worker entry point ----

namespace {

[[noreturn]] void UsageError(const std::string& message) {
  std::cerr << "cluster worker: " << message << "\n"
            << "usage: --listen <unix:/path|tcp:host:port> --benchmark <gpt3|moe>\n"
            << "       [--platform <name>] [--layers N] [--seq N] [--hidden N]\n"
            << "       [--heads N] [--vocab N] [--micro N] [--experts N]\n"
            << "       [--expert-hidden N] [--threads N] [--cache N]\n"
            << "       [--max-inflight N] [--max-conns N] [--deadline-margin-us N]\n"
            << "       --model mesh=NxM,path=/ckpt.ptck [--model ...]\n";
  std::exit(2);
}

sim::Mesh ParseMeshSpec(const std::string& spec) {
  const std::size_t x = spec.find('x');
  if (x == std::string::npos || x == 0 || x + 1 == spec.size()) {
    UsageError("mesh '" + spec + "' is not NxM");
  }
  return {static_cast<std::int32_t>(std::stol(spec.substr(0, x))),
          static_cast<std::int32_t>(std::stol(spec.substr(x + 1)))};
}

}  // namespace

int WorkerMain(int argc, char** argv) {
  std::string listen_spec;
  std::string benchmark_name = "gpt3";
  std::string platform = "platform1";
  long layers = 0, seq = 0, hidden = 0, heads = 0, vocab = 0, micro = 0;
  long experts = 0, expert_hidden = 0;
  long threads = 1, cache = 0;
  long max_inflight = util::EnvInt("PREDTOP_WORKER_MAX_INFLIGHT", 0);
  long max_conns = util::EnvInt("PREDTOP_WORKER_MAX_CONNS", 0);
  long deadline_margin_us = util::EnvInt("PREDTOP_DEADLINE_MARGIN_US", 0);
  struct RawModel {
    sim::Mesh mesh;
    std::string path;
  };
  std::vector<RawModel> raw_models;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cluster-worker") continue;  // re-exec marker of test children
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) UsageError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--listen") listen_spec = next();
    else if (arg == "--benchmark") benchmark_name = next();
    else if (arg == "--platform") platform = next();
    else if (arg == "--layers") layers = std::stol(next());
    else if (arg == "--seq") seq = std::stol(next());
    else if (arg == "--hidden") hidden = std::stol(next());
    else if (arg == "--heads") heads = std::stol(next());
    else if (arg == "--vocab") vocab = std::stol(next());
    else if (arg == "--micro") micro = std::stol(next());
    else if (arg == "--experts") experts = std::stol(next());
    else if (arg == "--expert-hidden") expert_hidden = std::stol(next());
    else if (arg == "--threads") threads = std::stol(next());
    else if (arg == "--cache") cache = std::stol(next());
    else if (arg == "--max-inflight") max_inflight = std::stol(next());
    else if (arg == "--max-conns") max_conns = std::stol(next());
    else if (arg == "--deadline-margin-us") deadline_margin_us = std::stol(next());
    else if (arg == "--model") {
      RawModel model;
      std::stringstream entries(next());
      std::string entry;
      while (std::getline(entries, entry, ',')) {
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) UsageError("--model entry '" + entry + "' is not k=v");
        const std::string k = entry.substr(0, eq), v = entry.substr(eq + 1);
        if (k == "mesh") model.mesh = ParseMeshSpec(v);
        else if (k == "path") model.path = v;
        else UsageError("unknown --model key '" + k + "'");
      }
      if (model.path.empty()) UsageError("--model needs path=");
      raw_models.push_back(std::move(model));
    } else {
      UsageError("unknown flag '" + arg + "'");
    }
  }
  if (listen_spec.empty()) UsageError("--listen is required");
  if (raw_models.empty()) UsageError("at least one --model is required");

  WorkerOptions options;
  try {
    options.listen = Endpoint::Parse(listen_spec);
  } catch (const std::exception& e) {
    UsageError(e.what());
  }
  if (benchmark_name == "gpt3") {
    ir::Gpt3Config config;
    if (seq) config.seq_len = seq;
    if (hidden) config.hidden = hidden;
    if (layers) config.num_layers = layers;
    if (heads) config.num_heads = heads;
    if (vocab) config.vocab = vocab;
    if (micro) config.microbatch = micro;
    options.benchmark = core::Gpt3Benchmark(config);
  } else if (benchmark_name == "moe") {
    ir::MoeConfig config;
    if (seq) config.seq_len = seq;
    if (hidden) config.hidden = hidden;
    if (layers) config.num_layers = layers;
    if (heads) config.num_heads = heads;
    if (vocab) config.vocab = vocab;
    if (micro) config.microbatch = micro;
    if (experts) config.num_experts = experts;
    if (expert_hidden) config.expert_hidden = expert_hidden;
    options.benchmark = core::MoeBenchmark(config);
  } else {
    UsageError("unknown benchmark '" + benchmark_name + "'");
  }
  for (const RawModel& model : raw_models) {
    options.models.push_back(
        {serve::ModelKey{benchmark_name, platform, model.mesh, {}}, model.path});
  }
  options.service.threads = static_cast<std::size_t>(std::max(1L, threads));
  if (cache > 0) options.service.cache_capacity = static_cast<std::size_t>(cache);
  if (max_inflight > 0) options.max_inflight = static_cast<std::size_t>(max_inflight);
  if (max_conns > 0) options.max_connections = static_cast<std::size_t>(max_conns);
  if (deadline_margin_us > 0) {
    options.service.deadline_margin_us = static_cast<std::uint64_t>(deadline_margin_us);
  }

  Worker worker(std::move(options));
  const fault::Status status = worker.Init();
  if (!status.ok()) {
    // The satellite contract: startup failures are typed and fail fast —
    // the exit code maps the StatusCode so a supervisor can tell a corrupt
    // checkpoint (no point restarting) from a transient IO failure.
    std::cerr << "cluster worker failed to start: " << status.ToString() << "\n";
    return 10 + static_cast<int>(status.code());
  }
  std::cout << "PREDTOP_WORKER_READY " << worker.BoundEndpoint().ToString() << std::endl;
  worker.Run();
  return 0;
}

}  // namespace predtop::cluster
