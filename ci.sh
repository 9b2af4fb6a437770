#!/usr/bin/env bash
# Tier-1 verify in one command: configure, build, run every gtest suite.
#
#   ./ci.sh            full build + docs check + full test sweep (every mode
#                      that builds the Release tree compiles with -Werror)
#   ./ci.sh smoke      full build + fast suites only (ctest -L smoke)
#   ./ci.sh bench      full build + microbenchmark smoke run (short
#                      --benchmark_min_time so perf regressions fail loudly
#                      instead of silently; binaries are built -O2 -DNDEBUG;
#                      results land in build/BENCH_sim.json and
#                      build/BENCH_ml.json); also runs the serve replay
#                      (writes build/BENCH_svc.json), the scenario sweep
#                      matrix (writes build/BENCH_sweep.json), and the
#                      energy-vs-JCT power ablation (writes
#                      build/BENCH_power.json)
#   ./ci.sh sweep      full build + parity-gated scenario sweep at small
#                      scale: sweep_matrix runs a 2-cluster x 4-policy x
#                      2-seed grid through sweep::ScenarioEngine twice
#                      (parallel task graph vs serial reference loop) and
#                      exits non-zero unless every cell is bit-identical
#                      and every trace was generated exactly once
#   ./ci.sh serve      full build + streaming-service replay at small scale:
#                      example_serve_replay tails a growing CSV, ingests it
#                      through svc::PredictionServer with a mid-replay
#                      kill/restore, and exits non-zero unless the streamed
#                      priorities are bit-identical to the batch evaluator
#                      and every checkpoint is an exact prefix
#   ./ci.sh threads    full build + the multi-worker paths at every pool
#                      width in {1, 2, 3, 8} (HELIOS_THREADS): the smoke
#                      suites (test_sweep and test_ces among them), the
#                      default 6-cluster sweep_matrix at scale 0.05,
#                      example_serve_replay, ablation_power and
#                      table5_ces_perf (the CES tick barrier) at scale 0.05,
#                      each step under `timeout` so a deadlock fails instead
#                      of hanging
#   ./ci.sh docs       no build: verify that docs/ARCHITECTURE.md and
#                      docs/FORMATS.md only reference files, CMake targets
#                      and qualified names (`ml::PackedForest`) that still
#                      exist
#   ./ci.sh asan       separate build-asan tree with AddressSanitizer +
#                      UndefinedBehaviorSanitizer (abort on first report),
#                      running the fast suites (ctest -L smoke) with the SIMD
#                      dispatch forced on (HELIOS_SIMD=1) so the sanitizers
#                      sweep the AVX2 forest walk, gather tail pads included
#   ./ci.sh simd       full build + the fast suites twice: once with the
#                      SIMD dispatch forced on, once forced off
#                      (HELIOS_SIMD=1 then HELIOS_SIMD=0) — the parity
#                      suites must pass bit-identically either way
#
# Extra args after the mode are passed through to ctest (full/smoke/asan/
# simd/threads) or to the microbenchmarks (bench).
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"
[ $# -gt 0 ] && shift
case "$mode" in
  full|smoke|bench|serve|sweep|threads|docs|asan|simd) ;;
  *) echo "usage: ./ci.sh [full|smoke|bench|serve|sweep|threads|docs|asan|simd] [args...]" >&2; exit 2 ;;
esac

# Grep-based link/target validator: every backticked repo path, every
# `dir/file.h` header reference, every `test_*`/`microbench_*`/`example_*`
# target and every `ns::name` named in the docs must resolve in the tree, so
# the docs cannot silently rot as code moves.
docs_check() {
  local fail=0 doc ref tgt part
  for doc in docs/ARCHITECTURE.md docs/FORMATS.md; do
    if [ ! -f "$doc" ]; then
      echo "DOCS FAIL: $doc is missing" >&2
      fail=1
      continue
    fi
    # Repo-rooted paths like `src/serialize` or `docs/FORMATS.md`.
    while IFS= read -r ref; do
      if [ ! -e "$ref" ]; then
        echo "DOCS FAIL: $doc references missing path: $ref" >&2
        fail=1
      fi
    done < <(grep -oE '`(src|tests|bench|examples|docs)/[A-Za-z0-9_./-]*`' "$doc" \
             | tr -d '\`' | sort -u)
    # Module-relative headers like `ml/gbdt.h` (include paths under src/).
    while IFS= read -r ref; do
      if [ ! -e "src/$ref" ]; then
        echo "DOCS FAIL: $doc references missing header: src/$ref" >&2
        fail=1
      fi
    done < <(grep -oE '`[a-z_]+/[A-Za-z0-9_]+\.h`' "$doc" | tr -d '\`' | sort -u)
    # CMake targets: test_* -> tests/, microbench_* -> bench/,
    # example_* -> examples/ (target prefix added by CMakeLists.txt).
    while IFS= read -r tgt; do
      case "$tgt" in
        test_*)       [ -f "tests/$tgt.cpp" ] || { echo "DOCS FAIL: $doc references missing target: $tgt" >&2; fail=1; } ;;
        microbench_*) [ -f "bench/$tgt.cpp" ] || { echo "DOCS FAIL: $doc references missing target: $tgt" >&2; fail=1; } ;;
        example_*)    [ -f "examples/${tgt#example_}.cpp" ] || { echo "DOCS FAIL: $doc references missing target: $tgt" >&2; fail=1; } ;;
      esac
    done < <(grep -oE '`(test|microbench|example)_[A-Za-z0-9_]+`' "$doc" \
             | tr -d '\`' | sort -u)
    # Qualified names like `ml::PackedForest` or `sim::ClusterSimulator::run`:
    # every component must be a word somewhere under src/, so a deleted or
    # renamed API cannot linger in the docs.
    while IFS= read -r ref; do
      for part in ${ref//::/ }; do
        if ! grep -rqw -- "$part" src; then
          echo "DOCS FAIL: $doc references unknown name: $ref" >&2
          fail=1
          break
        fi
      done
    done < <(grep -oE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' "$doc" \
             | tr -d '\`' | sort -u)
  done
  if [ "$fail" -ne 0 ]; then
    echo "DOCS FAIL: stale references (see above)" >&2
    return 1
  fi
  echo "docs check OK"
}

if [ "$mode" = docs ]; then
  docs_check
  exit 0
fi
[ "$mode" = full ] && docs_check

if [ "$mode" = asan ]; then
  # Own build tree so the sanitized objects never mix with the Release cache.
  # Debug keeps assertions live; -fno-sanitize-recover turns every ASan/UBSan
  # report into a hard failure instead of a log line. Benches and examples
  # are skipped — the smoke suites exercise the library paths that matter.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DHELIOS_BUILD_BENCH=OFF -DHELIOS_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j "$(nproc)"
  cd build-asan
  # Force the SIMD dispatch on: the AVX2 forest walk's gathers (including
  # the deliberate in-pad overreads) must run under ASan container
  # annotations. On hardware without AVX2 the runtime support gate still
  # wins and the scalar walk runs instead.
  export HELIOS_SIMD=1
  exec ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
fi

# Release is the CMake default here, but pin it so benches are always built
# -O2 -DNDEBUG even if a stale cache says otherwise. -Werror: a full build
# prints no warnings, so any new one fails CI instead of scrolling past.
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j "$(nproc)"

if [ "$mode" = bench ]; then
  # Perf smoke: run each microbenchmark briefly; any crash, assertion (the
  # sim bench verifies sharded-vs-serial parity, the ML bench verifies
  # batched-vs-per-row predict, SIMD-vs-scalar, batched-vs-serial evaluator
  # and save/load parity, both at startup), or missing binary fails the
  # script. The GBDT trainer's parity oracle runs in test_prediction_parity.
  if [ ! -x build/microbench_sim ]; then
    echo "FAIL: microbench_sim not built (install google-benchmark)" >&2
    exit 1
  fi
  # Machine-readable results land next to the curated repo-root BENCH_sim.json
  # (recorded medians); the binary exits non-zero on any parity mismatch.
  build/microbench_sim --benchmark_min_time=0.1 \
    --benchmark_out=build/BENCH_sim.json --benchmark_out_format=json "$@"
  if [ ! -x build/microbench_ml ]; then
    echo "FAIL: microbench_ml not built (install google-benchmark)" >&2
    exit 1
  fi
  # Machine-readable results land next to the curated repo-root BENCH_ml.json
  # (recorded medians); the binary exits non-zero on any parity mismatch.
  build/microbench_ml --benchmark_min_time=0.1 \
    --benchmark_out=build/BENCH_ml.json --benchmark_out_format=json "$@"
  if [ ! -x build/microbench_ingest ]; then
    echo "FAIL: microbench_ingest not built" >&2
    exit 1
  fi
  # Small row count: smoke-check the ingestion pipeline, not a full run.
  # Once per ParallelLoader path — one thread takes the serial loop, four the
  # chunked fan-out — and both face the serial-vs-parallel identity gate.
  for threads in 1 4; do
    HELIOS_THREADS=$threads \
    HELIOS_INGEST_ROWS="${HELIOS_INGEST_ROWS:-100000}" \
    HELIOS_INGEST_REPS="${HELIOS_INGEST_REPS:-1}" \
      build/microbench_ingest
  done
  # Streaming-service replay: parity-gated, and the source of BENCH_svc.json
  # (snapshot-query p50/p99 latency + ingest throughput).
  HELIOS_SERVE_SCALE="${HELIOS_SERVE_SCALE:-0.05}" \
  HELIOS_SERVE_OUT=build/BENCH_svc.json \
    build/example_serve_replay
  # Scenario sweep matrix: parity-gated grid run, and the source of
  # BENCH_sweep.json (grid wall-clock, per-cell medians, parallel-vs-serial
  # speedup).
  HELIOS_SWEEP_SCALE="${HELIOS_SWEEP_SCALE:-0.05}" \
  HELIOS_SWEEP_OUT=build/BENCH_sweep.json \
    build/sweep_matrix
  # Energy-vs-JCT power ablation: gated (capped admission must cut modeled
  # energy, parallel power grid must match serial bit-for-bit), and the
  # source of BENCH_power.json (the tradeoff table).
  HELIOS_POWER_SCALE="${HELIOS_POWER_SCALE:-0.05}" \
  HELIOS_POWER_OUT=build/BENCH_power.json \
    build/ablation_power
  exit 0
fi

if [ "$mode" = sweep ]; then
  # Sweep parity gate at small scale: every grid cell must be bit-identical
  # between the parallel task graph and the serial reference loop, and every
  # distinct trace key must be materialized exactly once.
  HELIOS_SWEEP_SCALE="${HELIOS_SWEEP_SCALE:-0.05}" \
  HELIOS_SWEEP_CLUSTERS="${HELIOS_SWEEP_CLUSTERS:-Venus,Earth}" \
  HELIOS_SWEEP_SEEDS="${HELIOS_SWEEP_SEEDS:-2}" \
    build/sweep_matrix
  exit 0
fi

if [ "$mode" = serve ]; then
  # Serve-while-learning gate at small scale: any priority that is not
  # bit-identical to the batch pipeline — including across the mid-replay
  # kill/restore — exits non-zero and fails CI.
  HELIOS_SERVE_SCALE="${HELIOS_SERVE_SCALE:-0.02}" \
    build/example_serve_replay
  exit 0
fi

if [ "$mode" = threads ]; then
  # Nested fork-join at every pool width, including widths above the core
  # count. Every step is parity- or self-gated and bounded by `timeout`.
  for threads in 1 2 3 8; do
    echo "=== HELIOS_THREADS=$threads ==="
    export HELIOS_THREADS=$threads
    (cd build && timeout 600 ctest -L smoke --output-on-failure -j "$(nproc)" "$@")
    HELIOS_SWEEP_SCALE=0.05 timeout 300 build/sweep_matrix
    HELIOS_SERVE_SCALE=0.02 timeout 300 build/example_serve_replay
    HELIOS_POWER_SCALE=0.05 timeout 300 build/ablation_power
    HELIOS_SCALE=0.05 timeout 300 build/table5_ces_perf
  done
  exit 0
fi

cd build
if [ "$mode" = simd ]; then
  # Same suites, both sides of the dispatch: the SIMD kernels must be
  # bit-identical to the scalar reference wherever the parity tests look.
  echo "=== ctest -L smoke with HELIOS_SIMD=1 (dispatch forced on) ==="
  HELIOS_SIMD=1 ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
  echo "=== ctest -L smoke with HELIOS_SIMD=0 (dispatch forced off) ==="
  HELIOS_SIMD=0 ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
  exit 0
fi
if [ "$mode" = smoke ]; then
  exec ctest -L smoke --output-on-failure -j "$(nproc)" "$@"
fi
exec ctest --output-on-failure -j "$(nproc)" "$@"
