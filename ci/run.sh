#!/usr/bin/env bash
# Tier-1 verification via the CMake presets (CMakePresets.json):
#   ci/run.sh            Release build + ctest
#   ci/run.sh sanitize   additional ASan/UBSan build + ctest (build-asan/)
#   ci/run.sh tsan       additional TSan build of the concurrency-sensitive
#                        suites (thread pool, prediction service, plan
#                        search and its parallel memo fill, mixed-shape batch
#                        work lists, parallel backward engine, data-parallel
#                        trainer, online refresh) run directly — the full
#                        suite is too slow under TSan and the other suites
#                        are single-threaded
#   ci/run.sh fault      additional ASan/UBSan build of the fault/serving/
#                        plan-search suites plus the fig10 fault drill
#                        (checkpoint corruption + quarantine + injected
#                        NaN/delay faults during a real plan search, which
#                        must still produce a valid finite plan)
#   ci/run.sh perf       additional -march=native build (build-native/), the
#                        inference parity + tensor suites under it, the
#                        plan-search benchmark's own tests
#                        (planbench/run.py --test), and a micro_kernels
#                        headline run (GEMM tiers, warm tape vs compiled
#                        predict, batch executor modes, host nproc/ISA)
#                        rewriting the committed BENCH_kernels.json
#   ci/run.sh train      training lane: the parallel-backward / trainer /
#                        online-refresh suites plus a smoke train_throughput
#                        run recording epoch time vs thread count (and
#                        speedup over the serial loop) to build/BENCH_train.json
#   ci/run.sh cluster    additional ASan/UBSan build of the cluster suite:
#                        wire-codec fuzz, router + shard workers over Unix
#                        sockets, fork/exec worker processes, and the SIGKILL
#                        mid-plan-search failover drill
#   ci/run.sh engine     inference-engine lane: ASan/UBSan build of the
#                        compile + serve suites (compiled-vs-tape parity incl.
#                        degenerate shapes, typed rejection of malformed
#                        inputs, planner properties, allocation-free warm
#                        forwards and batches, batch-executor bit parity,
#                        program-cache LRU and owner eviction, PredictMany
#                        vs per-query Predict), the fast-path parity suite,
#                        the bit-packed DAGRA mask vs a DFS oracle, the GCN
#                        adjacency vs a COO reference, pinned fingerprints,
#                        the GCN backward through the shared transpose, the
#                        plan search's parallel memo fill and shared
#                        per-computation encodings vs standalone encodings,
#                        the stage-program computation identity, then the
#                        fig10 engine drill on both paper
#                        platforms with PREDTOP_AUTOTUNE=1 (batch-oracle plan
#                        bit-equal to the per-query plan and matching a
#                        tape-priced plan)
#   ci/run.sh overload   overload-protection lane: the deadline / admission /
#                        router-timeout / reaping suites, the supervisor
#                        fork/exec suite (crash-loop quarantine, hung-worker
#                        SIGKILL, the kill+stop+overload plan-search drill),
#                        and a smoke overload_soak run recording the
#                        protected-vs-unprotected client sweep (admitted
#                        service p99 bound + zero post-deadline forwards) to
#                        build/BENCH_overload.json
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)"

if [[ "${1:-}" == "sanitize" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan -j "$(nproc)"
fi

if [[ "${1:-}" == "fault" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" \
    --target fault_test serve_test parallel_test fig10_optimization
  # The suites configure injection themselves (and must also pass clean).
  ./build-asan/tests/fault_test
  ./build-asan/tests/serve_test
  ./build-asan/tests/parallel_test
  # Full drill under ASan with an env-driven fault storm: torn checkpoint,
  # flaky reads, NaN forwards, delayed forwards, delayed pool dispatch.
  PREDTOP_FAULT="ckpt_read:0.3;predict_nan:0.1;predict_delay_ms:2;predict_delay_p:0.05;pool_delay_ms:1;pool_delay_p:0.02" \
    PREDTOP_FAULT_SEED=7 PREDTOP_FAULT_DRILL=1 PREDTOP_EPOCHS=40 \
    ./build-asan/bench/fig10_optimization
fi

if [[ "${1:-}" == "engine" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" \
    --target compile_test serve_test infer_test graph_test core_test simd_test \
    ir_test fig10_optimization
  # All of compile_test, including FusedParity.* (the fused attention at the
  # plan search's narrow heads and inexact scales, vs the tape), and the
  # attention's windowed kernels against the whole-row ones the tape runs.
  ./build-asan/tests/compile_test
  ./build-asan/tests/simd_test --gtest_filter='SimdDot.*:MaskedSoftmaxRow.*'
  ./build-asan/tests/serve_test --gtest_filter='Service.*:ServingOracle.*:Fingerprint.*'
  ./build-asan/tests/infer_test --gtest_filter='InferParity.*:PackedGemm.*'
  # The bit-packed DAGRA mask against a DFS oracle, the GCN adjacency against
  # a COO reference, pinned fingerprints, the GCN backward through the shared
  # transpose, the plan search's parallel memo fill and its shared
  # per-computation encodings against standalone encodings, and the
  # stage-program identity they are keyed by.
  ./build-asan/tests/graph_test --gtest_filter='DagraMask.*:EncodeGraph.*:Fingerprint.*'
  ./build-asan/tests/core_test \
    --gtest_filter='PlanSearch.ParallelMemoFillMatchesStandaloneEncoding:PlanSearch.SharedEncodingsMatchStandaloneAcrossModels:EncodingTable.*:GcnSharedTranspose.*'
  ./build-asan/tests/ir_test --gtest_filter='StageProgram.*'
  # Plan search on both paper platforms through the per-query oracle, the
  # batch oracle and a tape-priced oracle, with the runtime autotuner on:
  # batch == per-query to the bit, and batch matches the tape plan.
  PREDTOP_AUTOTUNE=1 PREDTOP_ENGINE_DRILL=1 PREDTOP_EPOCHS=40 \
    ./build-asan/bench/fig10_optimization
fi

if [[ "${1:-}" == "tsan" ]]; then
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$(nproc)" \
    --target util_test serve_test parallel_test infer_test cluster_test \
    autograd_test nn_test online_test compile_test graph_test core_test ir_test
  export TSAN_OPTIONS="halt_on_error=1"
  ./build-tsan/tests/util_test
  ./build-tsan/tests/parallel_test
  # Parallel backward engine (staged deterministic accumulation, concurrent
  # BackwardInto on shared parameters) and the data-parallel trainer.
  ./build-tsan/tests/autograd_test --gtest_filter='Engine.*'
  ./build-tsan/tests/nn_test --gtest_filter='ParallelTrainer.*'
  # Background fine-tune thread hot-swapping checkpoints under live serving.
  ./build-tsan/tests/online_test
  # PredictMany interleaves its misses' forwards on the service pool.
  ./build-tsan/tests/serve_test --gtest_filter='LruCache.*:Service.*:ServingOracle.PredictBatchMatchesScalarQueries:ThreadPool.*'
  # The plan search's parallel memo fill (programs and their hashes, then
  # one encoding per distinct computation, on a pool scoped to the call),
  # the identity it groups by, and the bit-packed mask it builds.
  ./build-tsan/tests/core_test --gtest_filter='PlanSearch.ParallelMemoFillMatchesStandaloneEncoding:PlanSearch.SharedEncodingsMatchStandaloneAcrossModels:EncodingTable.*'
  ./build-tsan/tests/ir_test --gtest_filter='StageProgram.*'
  ./build-tsan/tests/graph_test --gtest_filter='DagraMask.*:EncodeGraph.*'
  # Concurrent compiled forwards on one shared model (per-thread plan
  # buffers, lazy packed-weight snapshots) plus the parity suites that drive
  # every kernel at least once under TSan.
  ./build-tsan/tests/infer_test --gtest_filter='InferConcurrency.*:InferParity.*'
  # The program cache's build-once-per-shape race, per-thread plan buffers,
  # and the weight snapshots under simultaneous readers — single forwards
  # and batches.
  # The mixed-shape work list on no pool, one worker and four, and the fused
  # attention's ThreadPool(4) batch at the plan search's shapes.
  ./build-tsan/tests/compile_test \
    --gtest_filter='CompiledConcurrency.*:CompiledBatchConcurrency.*:ProgramCache.*:CompiledParity.AllPredictorsMatchTapeAndFastPath:CompiledBatch.RegressorBatchMatchesSequentialAcrossShapes:FusedParity.*'
  # Router concurrency: the cluster-wide coalescing map, per-worker
  # connection locking and failover counters under concurrent clients, plus
  # the overload-protection suites (deadline shedding, admission budgets,
  # per-attempt timeouts / breaker trips, connection-thread reaping) and a
  # worker's shared encodings under concurrent EncodedFor calls.
  # ClusterProcess/SupervisorProcess are excluded — fork/exec and TSan do
  # not mix; the in-process LocalCluster drives identical code paths on
  # threads.
  ./build-tsan/tests/cluster_test \
    --gtest_filter='ClusterE2E.*:Ring.*:Deadline.*:Admission.*:RouterTimeout.*:WorkerReap.*:WorkerEncoding.*'
fi

if [[ "${1:-}" == "perf" ]]; then
  cmake --preset native >/dev/null
  cmake --build --preset native -j "$(nproc)" \
    --target infer_test tensor_test nn_test micro_kernels
  ./build-native/tests/tensor_test
  ./build-native/tests/nn_test
  ./build-native/tests/infer_test
  # The plan-search benchmark's own tests (percentile rule, span self time,
  # Chrome trace, plan checker), built by planbench/run.py.
  python3 planbench/run.py --test
  # Headline rows only (the filter skips the google-benchmark suite).
  PREDTOP_BENCH_JSON=BENCH_kernels.json \
    ./build-native/bench/micro_kernels --benchmark_filter='^$'
fi

if [[ "${1:-}" == "train" ]]; then
  cmake --build --preset default -j "$(nproc)" \
    --target autograd_test nn_test online_test train_throughput
  ./build/tests/autograd_test --gtest_filter='Engine.*'
  ./build/tests/nn_test --gtest_filter='ParallelTrainer.*:Adam.*:CosineDecay.*:SplitDataset.*'
  ./build/tests/online_test
  # Thread sweep over the data-parallel Fit path; the serial row is the
  # baseline, so the JSON records speedup directly.
  PREDTOP_BENCH_SMOKE=1 PREDTOP_BENCH_JSON=build/BENCH_train.json \
    ./build/bench/train_throughput
fi

if [[ "${1:-}" == "cluster" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" --target cluster_test
  # The full cluster suite under ASan/UBSan: wire-codec round-trip + fuzz
  # rejection, router + 2 shard workers over Unix sockets (plan-search
  # parity with the in-process oracle), fork/exec worker processes with
  # typed startup failures, and the SIGKILL mid-PredictMany failover drill.
  ./build-asan/tests/cluster_test
fi

if [[ "${1:-}" == "overload" ]]; then
  cmake --build --preset default -j "$(nproc)" \
    --target cluster_test serve_test overload_soak
  # Deadline propagation + shedding, admission budgets (in-flight and
  # connection), per-attempt router timeouts / circuit breaker / retry
  # budget, and connection-thread reaping — all in-process.
  ./build/tests/cluster_test \
    --gtest_filter='Deadline.*:Admission.*:RouterTimeout.*:WorkerReap.*'
  ./build/tests/serve_test --gtest_filter='Service.*'
  # Supervisor over real fork/exec workers: crash-loop backoff + quarantine,
  # corrupt-checkpoint permanent failure, heartbeat-drop hung detection, and
  # the full drill (SIGKILL + SIGSTOP + injected overload during plan
  # search, which must still match the in-process plan exactly).
  ./build/tests/cluster_test --gtest_filter='SupervisorProcess.*'
  # Protected-vs-unprotected closed-loop client sweep against a live
  # cluster; asserts the two drill criteria (admitted service p99 within 2x
  # unloaded, zero post-deadline completions) and records the table.
  PREDTOP_BENCH_SMOKE=1 PREDTOP_BENCH_JSON=build/BENCH_overload.json \
    ./build/bench/overload_soak
fi
