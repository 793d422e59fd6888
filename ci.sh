#!/usr/bin/env bash
# Tier-1 verification, parameterized for the CI matrix (.github/workflows/ci.yml):
#
#   ./ci.sh [--preset release|sanitize|tsan] [--smoke full|tp|pp|fault|fleet|obs|paged]
#
#   --preset release   Release build with -Werror (default). Runs the full
#                      test suite, smoke-runs every fig* bench,
#                      schema-checks the machine-readable JSON outputs, and
#                      runs the perfbench self-test on mt_small_exec (builds
#                      perfbench; same-seed determinism of the executed
#                      path, train loss included).
#   --preset sanitize  Debug build under ASan+UBSan (halt on first report).
#                      Tests only — the analytic benches add nothing under a
#                      sanitizer but cost minutes.
#   --preset tsan      Debug build under ThreadSanitizer, running only the
#                      genuinely multi-threaded surface: the two-stream
#                      scheduler (dist_overlap_test), the common/parallel.h
#                      worker pool (parallel_test: nested, concurrent and
#                      throwing loops; gemm_test: packing and tile blocks
#                      split across the pool), and the heartbeat/timeout
#                      watcher thread (fault_tolerance_test). Everything
#                      else only runs its loops through the same pool and
#                      would only slow the lane.
#   --smoke full       Everything the preset covers (default).
#   --smoke tp         Tensor-parallel smoke lane: builds everything, runs
#                      the TP test binary, and (release only) runs fig_tp
#                      and schema-checks its JSON. Fast signal that the
#                      sharded path still holds its parity/capacity claims.
#   --smoke pp         Pipeline-parallel smoke lane: the suites the one
#                      train_step driver must hold across its pp = 1 and
#                      pp > 1 cases (PP 1F1B parity/schedule/hybrid
#                      claims, pipelined-update and graph-replay parity,
#                      Chrome-trace well-formedness; the caching
#                      allocator against its reference model, memory_test;
#                      heap allocations per launch of a model-only
#                      tp2 x pp2 step, alloc_count_test), and (release
#                      only) fig_3d with its schema check plus the
#                      perfbench self-test on mt_big_3d (builds perfbench;
#                      same-seed determinism of the model-only TP x PP path).
#   --smoke fault      Fault-injection smoke lane: the fault-tolerance test
#                      binary (checkpoint/rollback/elastic/degraded-serving
#                      claims), and (release only) fig_fault with its
#                      schema check.
#   --smoke fleet      Serving-fleet smoke lane: the suites the replayed
#                      decode step and the walked admission prefill must
#                      hold (router policies, hedged retries, token-exact
#                      re-dispatch, rolling reload, walked-vs-host-driven
#                      replay and walked-vs-eager prefill parity under
#                      faults, a failed prefill freeing its lane; heap
#                      allocations per replayed step, per walked prefill
#                      and per eager launch; graph replay discipline and
#                      the device's eager walk, simgpu_test; the SLO
#                      window's incremental merge, obs_test), and (release only)
#                      fig_fleet with its schema check plus the perfbench
#                      self-test on gpt2_serve_fleet (builds perfbench;
#                      same-seed determinism of the walked decode path).
#   --smoke obs        Observability smoke lane: the telemetry test binaries
#                      (metrics/roofline/SLO/golden-snapshot, Chrome-trace
#                      well-formedness), and (release only) fig_obs with its
#                      schema check (overhead < 1%, roofline coverage).
#   --smoke paged      Paged-KV smoke lane: the serving/infer test binary
#                      (paged-vs-contiguous bitwise parity, COW fork
#                      isolation, block-table graph replay), and (release
#                      only) fig_page with its schema check (>= 4x residents
#                      at fixed KV bytes, prefix-sharing hit rate > 0).
#
# Fails on the first error; a bench that exits nonzero OR writes no/invalid
# JSON fails the run (ci/check_bench_json.py — python3 is required for the
# release preset, so missing validation can never pass silently).
set -euo pipefail
cd "$(dirname "$0")"

PRESET=release
SMOKE=full
while [ $# -gt 0 ]; do
  case "$1" in
    --preset) PRESET="${2:?ci.sh: --preset needs a value (release|sanitize|tsan)}"; shift 2 ;;
    --smoke) SMOKE="${2:?ci.sh: --smoke needs a value (full|tp|pp|fault|fleet|obs|paged)}"; shift 2 ;;
    *) echo "ci.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

case "$PRESET" in
  release)
    BUILD_DIR=build-release
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release -DLS2_WERROR=ON)
    ;;
  sanitize)
    BUILD_DIR=build-sanitize
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug
                "-DCMAKE_CXX_FLAGS=${SAN_FLAGS}"
                "-DCMAKE_EXE_LINKER_FLAGS=${SAN_FLAGS}")
    ;;
  tsan)
    BUILD_DIR=build-tsan
    SAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug
                "-DCMAKE_CXX_FLAGS=${SAN_FLAGS}"
                "-DCMAKE_EXE_LINKER_FLAGS=${SAN_FLAGS}")
    ;;
  *) echo "ci.sh: unknown preset '$PRESET'" >&2; exit 2 ;;
esac
case "$SMOKE" in full|tp|pp|fault|fleet|obs|paged) ;; *) echo "ci.sh: unknown smoke '$SMOKE'" >&2; exit 2 ;; esac

echo "ci.sh: preset=$PRESET smoke=$SMOKE -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"

# A hang is a failure, not a stall: every test binary gets a hard timeout —
# and a filter that matches nothing is a failure too, never a silent pass.
if [ "$PRESET" = tsan ]; then
  # The TSan lane pins its scope to the threaded surface regardless of the
  # smoke flavour — single-threaded tests under TSan are pure slowdown.
  ctest --output-on-failure --timeout 600 --no-tests=error \
    -R 'dist_overlap_test|^parallel_test$|gemm_test|fault_tolerance_test'
elif [ "$SMOKE" = tp ]; then
  ctest --output-on-failure --timeout 300 --no-tests=error -R tensor_parallel_test
elif [ "$SMOKE" = pp ]; then
  ctest --output-on-failure --timeout 300 --no-tests=error \
    -R 'pipeline_parallel_test|pipeline_update_test|graph_replay_test|trace_test|memory_test|alloc_count_test'
elif [ "$SMOKE" = fault ]; then
  ctest --output-on-failure --timeout 300 --no-tests=error -R fault_tolerance_test
elif [ "$SMOKE" = fleet ]; then
  ctest --output-on-failure --timeout 300 --no-tests=error \
    -R 'fleet_test|alloc_count_test|graph_replay_test|simgpu_test|obs_test'
elif [ "$SMOKE" = obs ]; then
  ctest --output-on-failure --timeout 300 --no-tests=error -R 'obs_test|trace_test'
elif [ "$SMOKE" = paged ]; then
  ctest --output-on-failure --timeout 300 --no-tests=error -R infer_test
else
  ctest --output-on-failure --timeout 300 --no-tests=error -j "$(nproc)"
fi

if [ "$PRESET" != release ]; then
  echo "ci.sh: $PRESET preset done (benches are a release-lane concern)"
  exit 0
fi

command -v python3 >/dev/null 2>&1 || {
  echo "ci.sh: python3 is required to validate bench JSON" >&2; exit 1; }

# Stale outputs from a previous invocation must never pass validation: a
# bench that silently stops writing its JSON has to FAIL the schema check.
rm -f bench/fig*.json

if [ "$SMOKE" = tp ]; then
  echo "ci.sh: smoke-running ./fig_tp"
  ./fig_tp >/dev/null
  python3 ../ci/check_bench_json.py fig_tp
elif [ "$SMOKE" = pp ]; then
  echo "ci.sh: smoke-running ./fig_3d"
  ./fig_3d >/dev/null
  python3 ../ci/check_bench_json.py fig_3d
  echo "ci.sh: perfbench self-test on mt_big_3d"
  (cd .. && python3 perfbench/run.py --selftest --workload mt_big_3d)
elif [ "$SMOKE" = fault ]; then
  echo "ci.sh: smoke-running ./fig_fault"
  ./fig_fault >/dev/null
  python3 ../ci/check_bench_json.py fig_fault
elif [ "$SMOKE" = fleet ]; then
  echo "ci.sh: smoke-running ./fig_fleet"
  ./fig_fleet >/dev/null
  python3 ../ci/check_bench_json.py fig_fleet
  echo "ci.sh: perfbench self-test on gpt2_serve_fleet"
  (cd .. && python3 perfbench/run.py --selftest --workload gpt2_serve_fleet)
elif [ "$SMOKE" = obs ]; then
  echo "ci.sh: smoke-running ./fig_obs"
  ./fig_obs >/dev/null
  python3 ../ci/check_bench_json.py fig_obs
elif [ "$SMOKE" = paged ]; then
  echo "ci.sh: smoke-running ./fig_page"
  ./fig_page >/dev/null
  python3 ../ci/check_bench_json.py fig_page
else
  # Smoke-run EVERY paper-figure bench (all run in kModelOnly, so this is
  # cheap) so bench binaries can't bit-rot silently, then schema-check the
  # machine-readable outputs perf-trajectory tracking relies on — a bench
  # that silently writes nothing (or garbage) fails here.
  for bench in ./fig*; do
    [ -x "$bench" ] || continue
    echo "ci.sh: smoke-running $bench"
    "$bench" >/dev/null
  done
  python3 ../ci/check_bench_json.py fig22 fig_launch_graph fig_serve fig_tp fig_3d fig_fault fig_fleet fig_obs fig_page
  echo "ci.sh: perfbench self-test on mt_small_exec"
  (cd .. && python3 perfbench/run.py --selftest --workload mt_small_exec)
fi

echo "ci.sh: all checks passed"
