#!/bin/sh
# Full verification pass over every supported configuration:
#
#   1. plain build + tests + the reproduction golden (prefsim_repro at
#      paper scale diffed against results/, then re-rendered from its
#      warm cache with no simulation) + example smoke + determinism +
#      the engine differential (the local-clock core vs. the reference
#      cycle loop, byte-compared on Figure 2 at 3/4/8/16 processors,
#      Figure 3, the cache, protocol and prefetch ablations and
#      mowry_gupta) + simulation-core throughput smoke +
#      the perf-regression gate (fresh bench_perf.sh vs the checked-in
#      BENCH_simcore.json, via prefsim_report --compare) + telemetry,
#      Chrome trace, interval time-series, per-line attribution-profile
#      and critical-path validation (the latter two byte-compared cycle vs
#      local, with the critpath what-if drift gated <= 15% on the
#      16-processor fig2 PREF points), and the malformed documents of
#      tests/malformed/ through every reading tool (no crash exits);
#   2. the verification layer: exhaustive protocol model checking
#      (2- and 3-cache), seeded-mutation detection, the trace linter
#      over all five workload generators, the static analyzer
#      (prefsim_analyze: prefetch quality + race detection) over the
#      same generators under PREF and PWS, and the static-vs-simulated
#      drift gate (>= 80% late recall on the fig2 PREF point);
#   3. clang-tidy over the static-analysis profile in .clang-tidy,
#      hard-gated on the checked-in .clang-tidy-baseline count
#      (skipped loudly when clang-tidy is not installed);
#   4. ThreadSanitizer for the two sources of threads: the sweep
#      engine's worker pool (--jobs) and parallelFor, which generates,
#      classifies and annotates a trace's processors concurrently (a
#      simulation itself is single-threaded);
#   5. AddressSanitizer+UBSan with the PREFSIM_VERIFY runtime invariant
#      hooks compiled in, running the full test suite.
#
# Each stage prints its wall-clock budget when it completes.
# Usage: scripts/check.sh [builddir]
set -e
BUILD=${1:-build}
JOBS=$(nproc)

STAGE_NAME=
STAGE_START=0
stage() {
    now=$(date +%s)
    if [ -n "$STAGE_NAME" ]; then
        echo "== stage done: $STAGE_NAME [$((now - STAGE_START))s]"
    fi
    STAGE_NAME=$1
    STAGE_START=$now
    if [ -n "$1" ]; then
        echo "== stage: $1"
    fi
}

# --- configuration 1: plain -------------------------------------------
stage "plain build"
cmake -B "$BUILD" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD" -j "$JOBS"
# For information only: non-comment C++ lines of the simulation core,
# the size the fast-path census (ROADMAP) tracks.
echo "info: $(sh scripts/sloc.sh src/sim) (non-comment C++ lines)"

stage "plain tests"
ctest --test-dir "$BUILD" -j "$JOBS" --output-on-failure

stage "reproduction golden"
# Every paper table, figure and ablation from one sweep at the default
# (paper) scale must reproduce the checked-in results/ byte for byte.
# After an intentional model change, regenerate them:
#   build/bench/prefsim_repro --jobs "$(nproc)" --out results
CACHE=$(mktemp -d)
trap 'rm -rf "$CACHE"' EXIT
# The cold run's peak RSS is printed for information (no gate); there
# is no /usr/bin/time, so python3 reads it from getrusage.
python3 - "$BUILD"/bench/prefsim_repro --quiet --jobs "$JOBS" \
    --out "$CACHE/results" --cache-dir "$CACHE/runs" <<'EOF'
import resource, subprocess, sys
rc = subprocess.run(sys.argv[1:]).returncode
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
print(f"info: cold prefsim_repro peak RSS {rss} MB")
sys.exit(rc)
EOF
diff -r results "$CACHE/results"
echo "ok: prefsim_repro reproduces results/"
# A warm cache re-renders every table by exact key without simulating.
"$BUILD"/bench/prefsim_repro --quiet --jobs "$JOBS" --out "$CACHE/rerender" \
    --cache-dir "$CACHE/runs" --metrics-out "$CACHE/rerender.json"
diff -r results "$CACHE/rerender"
grep -q '"simulations_run":0[,}]' "$CACHE/rerender.json"
echo "ok: the warm cache re-renders results/ with no simulation"

stage "example smoke"
for e in quickstart false_sharing_clinic bus_saturation_study; do
    "$BUILD"/examples/$e --jobs "$JOBS" > /dev/null && echo "ok: $e"
done

stage "parallel determinism"
# --jobs N must emit the same bytes as serial: the table and the
# profile, critical-path and time-series documents (workers start and
# commit runs in another order; every document sorts its runs).
for run in serial parallel; do
    jobs=1
    [ "$run" = parallel ] && jobs=$JOBS
    "$BUILD"/bench/prefsim_repro fig2_exec_time --refs 20000 --procs 8 \
        --csv --quiet --jobs "$jobs" \
        --profile-out "$CACHE/$run.profile.json" \
        --critpath-out "$CACHE/$run.critpath.json" \
        --timeseries-out "$CACHE/$run.timeseries.json" > "$CACHE/$run.csv"
done
for doc in csv profile.json critpath.json timeseries.json; do
    cmp "$CACHE/serial.$doc" "$CACHE/parallel.$doc"
done
rm -f "$CACHE"/serial.* "$CACHE"/parallel.*
echo "ok: parallel output and documents identical to serial"

stage "engine differential"
# The local-clock core must emit byte-identical results to the
# reference cycle loop (docs/simcore.md). The engine is deliberately
# not part of the experiment cache key, so --no-cache is required: a
# cached run would compare one engine's numbers against themselves.
# Figure 2 runs at 3, 4, 8 and 16 processors (3 is the perf gate's
# micro configuration); Figure 3 and the cache and protocol ablations
# cover what the quiet plan replays (access masks, first uses), what
# ends it (victim-buffer swaps and prefetch-data-buffer
# promotions, which run exactly) and what invalidates it (remote
# invalidations and downgrades, write-update); the prefetch ablation's
# buffer depths of 1 to 32 stall processors on a full prefetch buffer,
# which the local-clock core sleeps through until their own fills;
# mowry_gupta is the one entry with more than one data channel (16), so
# its grants wait on free channels and each grant cycle runs exactly.
# The budget guards against an engine that stopped forming quiet spans,
# not timing noise.
DIFF_START=$(date +%s)
engine_diff() {
    name=$1
    shift
    for engine in local cycle; do
        "$BUILD"/bench/prefsim_repro "$name" --refs 10000 --quiet --no-cache \
            --jobs "$JOBS" --engine "$engine" "$@" > "$CACHE/diff.$engine"
    done
    cmp "$CACHE/diff.local" "$CACHE/diff.cycle"
    echo "ok: local-clock engine byte-identical to the cycle loop on $name $*"
}
for procs in 3 4 8 16; do
    engine_diff fig2_exec_time --procs "$procs" --csv
done
engine_diff fig3_miss_components --procs 8 --csv
engine_diff ablation_cache --procs 8
engine_diff ablation_protocol --procs 8
engine_diff ablation_prefetch --procs 8
engine_diff mowry_gupta --procs 8
DIFF_ELAPSED=$(($(date +%s) - DIFF_START))
if [ "$DIFF_ELAPSED" -gt 300 ]; then
    echo "FAIL: engine differential took ${DIFF_ELAPSED}s (budget 300s)" >&2
    exit 1
fi
echo "ok: engine differential in ${DIFF_ELAPSED}s (budget 300s)"

stage "simcore throughput smoke"
# Reduced-refs run of the throughput benchmark: proves the report
# machinery works and the local-clock engine is not slower than the
# reference loop. The budget is generous — it guards against a
# pathological regression (e.g. inert spans that stopped forming), not
# timing noise. This stage and the perf-regression gate pass
# --history none, so a check run appends nothing to the trend log.
SMOKE_START=$(date +%s)
scripts/bench_perf.sh --refs 3000 --out "$CACHE/bench_smoke.json" \
    --build "$BUILD" --history none
SMOKE_ELAPSED=$(($(date +%s) - SMOKE_START))
if [ "$SMOKE_ELAPSED" -gt 300 ]; then
    echo "FAIL: simcore smoke took ${SMOKE_ELAPSED}s (budget 300s)" >&2
    exit 1
fi
grep -q '"schema":"prefsim-bench-simcore-v1"' "$CACHE/bench_smoke.json"
echo "ok: simcore smoke in ${SMOKE_ELAPSED}s (budget 300s)"
# A zero trial count has no median: the script must refuse it before
# any run and publish no report.
rm -f "$CACHE/bench_zero.json"
if scripts/bench_perf.sh --trials 0 --refs 3000 \
    --out "$CACHE/bench_zero.json" --build "$BUILD" --history none \
    > /dev/null 2>&1; then
    echo "FAIL: bench_perf.sh --trials 0 exited 0" >&2
    exit 1
fi
if [ -e "$CACHE/bench_zero.json" ]; then
    echo "FAIL: bench_perf.sh --trials 0 published a report" >&2
    exit 1
fi
echo "ok: bench_perf.sh refuses --trials 0"

stage "perf-regression gate"
# A fresh full-scale bench_perf.sh run diffed against the checked-in
# baseline. Short runs are not comparable (throughput at reduced refs
# sits 15-25 % below full scale), so this runs at the baseline's own
# refs_per_proc. The gate is on the same-run engine speedups
# (speedup_fig2_sim, speedup_micro3_sim: cycle loop over local clocks)
# — warn at 2 %, fail at 10 %. bench_perf.sh runs the trials round-robin
# across its four configurations, so drift between rounds lands on
# both engines alike; drift within a round does not cancel. Absolute
# sim-only throughput is compared too but only warns: run-to-run host
# speed on a shared VM spreads 18-36 %, wider than any useful threshold.
# After an intentional performance change or a hardware move,
# regenerate the baseline:
#   scripts/bench_perf.sh && git add BENCH_simcore.json
BASE_REFS=$(grep -o '"refs_per_proc":[0-9]*' BENCH_simcore.json \
    | cut -d: -f2)
GATE_START=$(date +%s)
scripts/bench_perf.sh --refs "$BASE_REFS" \
    --out "$CACHE/bench_fresh.json" --build "$BUILD" --history none
GATE_ELAPSED=$(($(date +%s) - GATE_START))
if [ "$GATE_ELAPSED" -gt 600 ]; then
    echo "FAIL: perf gate took ${GATE_ELAPSED}s (budget 600s)" >&2
    exit 1
fi
"$BUILD"/tools/prefsim_report --compare BENCH_simcore.json \
    "$CACHE/bench_fresh.json" --warn 0.02 --fail 0.10
echo "ok: perf gate in ${GATE_ELAPSED}s (budget 600s)"

stage "telemetry validation"
# --metrics-out and --trace-out emit strict JSON (the Chrome trace is a
# runtime consumer of the event stream; no special build); the
# validator must agree with the lint/verify tools on exit codes and
# emit the shared findings schema under --json.
"$BUILD"/bench/prefsim_repro fig2_exec_time --refs 20000 --procs 8 --quiet \
    --jobs "$JOBS" --metrics-out "$CACHE/metrics.json" \
    --trace-out "$CACHE/trace.json" > /dev/null
"$BUILD"/tools/validate_telemetry "$CACHE/metrics.json" "$CACHE/trace.json"
"$BUILD"/tools/validate_telemetry --json "$CACHE/metrics.json" \
    | grep -q '"schema":"prefsim-findings-v1"'
echo "ok: telemetry + Chrome trace JSON validate (default build)"
# Each run folds its metrics into the shared registry when it commits,
# in completion order; every field is a sum or a max, so the metrics
# object must not depend on --jobs. The one-line document holds it
# between "sweep" (whose *_nanos timings differ run to run) and
# "tracing". 16 processors at --no-cache reach the overflow buckets,
# so the merged maxima are compared too.
for j in 1 "$JOBS"; do
    "$BUILD"/bench/prefsim_repro fig2_exec_time --refs 2000 --procs 16 \
        --quiet --jobs "$j" --no-cache --metrics-out "$CACHE/merge_$j.json" \
        > /dev/null
    sed -e 's/.*"metrics":\(.*\),"tracing":.*/\1/' "$CACHE/merge_$j.json" \
        > "$CACHE/merge_$j.metrics"
done
grep -q '"overflow":[1-9]' "$CACHE/merge_1.metrics"
cmp "$CACHE/merge_1.metrics" "$CACHE/merge_$JOBS.metrics"
echo "ok: metrics object identical at --jobs 1 and --jobs $JOBS"
# Malformed documents (tests/malformed/: wrong-kind values where a
# reader expects another) must end in a diagnostic, not a crash: every
# tool and mode that reads them must exit below 128 (an assertion abort
# is 134).
no_crash() {
    rc=0
    "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ge 128 ]; then
        echo "FAIL: exit $rc (crash) from: $*" >&2
        exit 1
    fi
}
for f in tests/malformed/*; do
    no_crash "$BUILD"/tools/validate_telemetry "$f"
    for mode in --profile --critpath --drift --compare; do
        no_crash "$BUILD"/tools/prefsim_report "$mode" "$f"
    done
    no_crash "$BUILD"/tools/prefsim_analyze --gen mp3d --procs 2 \
        --refs 500 --validate --profile "$f"
done
echo "ok: malformed documents end in diagnostics, not crashes"

stage "timeseries validation"
# Interval sampling over a real sweep. Cached results skip simulation
# (and therefore record no series), so --no-cache forces every run to
# sample; the validator checks the prefsim-timeseries-v1 shape and the
# windowing invariants (monotone cycles, windows tiling the run). The
# cycle and local engines must emit byte-identical documents: every
# frame reads each processor's statistics as of the sample cycle, which
# the local-clock core reaches by catching every processor up first.
TS_START=$(date +%s)
for engine in cycle local; do
    "$BUILD"/bench/prefsim_repro fig2_exec_time --refs 3000 --procs 8 \
        --quiet --jobs "$JOBS" --no-cache --engine "$engine" \
        --sample-interval 977 \
        --timeseries-out "$CACHE/timeseries_$engine.json" > /dev/null
done
"$BUILD"/tools/validate_telemetry "$CACHE/timeseries_cycle.json"
cmp "$CACHE/timeseries_cycle.json" "$CACHE/timeseries_local.json"
echo "ok: timeseries byte-identical cycle vs local"
TS_ELAPSED=$(($(date +%s) - TS_START))
if [ "$TS_ELAPSED" -gt 300 ]; then
    echo "FAIL: timeseries stage took ${TS_ELAPSED}s (budget 300s)" >&2
    exit 1
fi
echo "ok: interval time series validates in ${TS_ELAPSED}s (budget 300s)"

stage "profile validation"
# Per-line contention attribution over one fig2 config. The validator
# checks the prefsim-profile-v1 shape and the totals-vs-rows
# consistency; the cycle and local engines must emit byte-identical
# profile documents, which is what forces the local-clock core's
# deferred first-use replay to attribute correctly. --no-cache: cached
# points would record only skip markers.
PROF_START=$(date +%s)
"$BUILD"/bench/prefsim_repro fig2_exec_time --refs 3000 --procs 8 --quiet \
    --jobs "$JOBS" --no-cache --engine cycle \
    --profile-out "$CACHE/profile_cycle.json" > /dev/null
"$BUILD"/bench/prefsim_repro fig2_exec_time --refs 3000 --procs 8 --quiet \
    --jobs "$JOBS" --no-cache --engine local \
    --profile-out "$CACHE/profile_local.json" > /dev/null
"$BUILD"/tools/validate_telemetry "$CACHE/profile_cycle.json"
cmp "$CACHE/profile_cycle.json" "$CACHE/profile_local.json"
echo "ok: profile byte-identical cycle vs local"
"$BUILD"/tools/prefsim_report --profile "$CACHE/profile_cycle.json" \
    --top 5 > /dev/null
PROF_ELAPSED=$(($(date +%s) - PROF_START))
if [ "$PROF_ELAPSED" -gt 300 ]; then
    echo "FAIL: profile stage took ${PROF_ELAPSED}s (budget 300s)" >&2
    exit 1
fi
echo "ok: attribution profile validates in ${PROF_ELAPSED}s (budget 300s)"

stage "critpath validation + what-if drift gate"
# Critical-path analysis over the 16-processor fig2 sweep — the
# paper's acceptance point. Three gates: the prefsim-critpath-v1 shape
# must validate; the cycle and local engines must emit byte-identical
# documents (--whatif-validate included: the widened-bus
# re-simulation is engine-invariant by the simcore contract); and on
# every 16-proc PREF point at the bus-saturating 16-cycle transfer
# latency the infinite-bus prediction must land within 15% of the
# re-simulated ground truth. --no-cache: cached points would record
# only skip markers.
CRIT_START=$(date +%s)
"$BUILD"/bench/prefsim_repro fig2_exec_time --refs 2000 --procs 16 --quiet \
    --jobs "$JOBS" --no-cache --engine cycle --whatif-validate \
    --critpath-out "$CACHE/critpath_cycle.json" > /dev/null
"$BUILD"/bench/prefsim_repro fig2_exec_time --refs 2000 --procs 16 --quiet \
    --jobs "$JOBS" --no-cache --engine local --whatif-validate \
    --critpath-out "$CACHE/critpath_local.json" > /dev/null
"$BUILD"/tools/validate_telemetry "$CACHE/critpath_cycle.json"
cmp "$CACHE/critpath_cycle.json" "$CACHE/critpath_local.json"
echo "ok: critpath byte-identical cycle vs local"
# Split the one-line document at each run label; the only "drift" keys
# are the validated infinite-bus scenarios, so the first drift in a
# record is that run's prediction error.
awk -v RS='"label":"' 'NR > 1 {
    split($0, parts, "\""); label = parts[1]
    if (label !~ /\/PREF@16$/) next
    if (match($0, /"drift":[0-9.eE+-]+/)) {
        d = substr($0, RSTART + 8, RLENGTH - 8) + 0
        printf "   %s: infinite-bus drift %.1f%%\n", label, d * 100
        if (d > 0.15) { print "FAIL: " label " drift above 15%"; bad = 1 }
        n++
    }
} END { if (n == 0) { print "FAIL: no validated PREF@16 runs"; exit 1 }
        exit bad }' "$CACHE/critpath_cycle.json"
"$BUILD"/tools/prefsim_report --critpath "$CACHE/critpath_cycle.json" \
    --top 5 > /dev/null
CRIT_ELAPSED=$(($(date +%s) - CRIT_START))
if [ "$CRIT_ELAPSED" -gt 300 ]; then
    echo "FAIL: critpath stage took ${CRIT_ELAPSED}s (budget 300s)" >&2
    exit 1
fi
echo "ok: critpath validates, what-if within 15% in ${CRIT_ELAPSED}s" \
    "(budget 300s)"

# --- the verification layer -------------------------------------------
stage "protocol model check (2 caches)"
"$BUILD"/tools/prefsim_verify --caches 2
stage "protocol model check (3 caches, exhaustive)"
"$BUILD"/tools/prefsim_verify --caches 3
stage "protocol mutation detection"
# A seeded protocol bug must be *caught* (exit 1 with a counterexample).
if "$BUILD"/tools/prefsim_verify --caches 2 --mutation skip-invalidate \
    > "$CACHE/mutation.out" 2>&1; then
    echo "FAIL: seeded mutation was not detected" >&2
    exit 1
fi
grep -q "counterexample" "$CACHE/mutation.out"
echo "ok: seeded mutation detected with counterexample"

stage "trace lint (five generators)"
"$BUILD"/tools/prefsim_lint --gen all
"$BUILD"/tools/prefsim_lint --json --gen all --refs 5000 \
    | grep -q '"ok":true'
echo "ok: all generators lint clean"

stage "static analysis (five generators)"
# prefsim_analyze over every generator under the baseline PREF strategy
# and the write-shared-aware PWS. The JSON must validate as
# prefsim-analysis-v1 and the exit code must be 0: warnings (the
# generators' documented sharing idioms, late prefetches) are fine,
# error-grade findings (inconsistent locking, broken barrier structure)
# are not.
SA_START=$(date +%s)
for strat in PREF PWS; do
    "$BUILD"/tools/prefsim_analyze --json --gen all --refs 5000 \
        --strategy "$strat" > "$CACHE/analysis_$strat.json"
    "$BUILD"/tools/validate_telemetry "$CACHE/analysis_$strat.json"
done
SA_ELAPSED=$(($(date +%s) - SA_START))
if [ "$SA_ELAPSED" -gt 300 ]; then
    echo "FAIL: static analysis took ${SA_ELAPSED}s (budget 300s)" >&2
    exit 1
fi
echo "ok: all generators analyze clean (PREF + PWS) in ${SA_ELAPSED}s"

stage "static-vs-simulated drift gate"
# Cross-validate the static late prediction against one profiled
# simulation of the paper's 16-processor fig2 PREF point: of the
# prefetches the simulator observes to be late, the static pass must
# have predicted at least 80% late (analysis.drift.late_recall fires
# below the floor, which makes prefsim_analyze exit non-zero). The
# drift table render is exercised on the same document.
DRIFT_START=$(date +%s)
"$BUILD"/tools/prefsim_analyze --json --gen topopt --procs 16 \
    --refs 100000 --seed 12345 --strategy PREF --transfer 8 \
    --validate --late-floor 0.80 > "$CACHE/analysis_drift.json"
"$BUILD"/tools/validate_telemetry "$CACHE/analysis_drift.json"
"$BUILD"/tools/prefsim_report --drift "$CACHE/analysis_drift.json" \
    > /dev/null
DRIFT_ELAPSED=$(($(date +%s) - DRIFT_START))
if [ "$DRIFT_ELAPSED" -gt 300 ]; then
    echo "FAIL: drift gate took ${DRIFT_ELAPSED}s (budget 300s)" >&2
    exit 1
fi
echo "ok: fig2 late recall >= 80% in ${DRIFT_ELAPSED}s (budget 300s)"

stage "clang-tidy"
# Hard gate against the checked-in baseline: the diagnostic count must
# not exceed .clang-tidy-baseline (currently 0 — the tree is clean
# under the .clang-tidy profile). After genuinely fixing or suppressing
# diagnostics, regenerate the baseline by writing the new count to
# .clang-tidy-baseline and committing it alongside the change.
if command -v clang-tidy > /dev/null 2>&1; then
    find src tools -name '*.cc' -print \
        | xargs clang-tidy -p "$BUILD" --quiet \
        > "$CACHE/tidy.out" 2> /dev/null || true
    TIDY_COUNT=$(grep -c -E 'warning:|error:' "$CACHE/tidy.out" || true)
    TIDY_BASE=$(cat .clang-tidy-baseline)
    if [ "$TIDY_COUNT" -gt "$TIDY_BASE" ]; then
        echo "FAIL: clang-tidy emitted $TIDY_COUNT diagnostics" \
            "(baseline $TIDY_BASE)" >&2
        grep -E 'warning:|error:' "$CACHE/tidy.out" | head -20 >&2
        exit 1
    fi
    echo "ok: clang-tidy ($TIDY_COUNT diagnostics, baseline $TIDY_BASE)"
else
    echo "skip: clang-tidy not installed (the gate runs when it is)"
fi

# --- configuration 2: ThreadSanitizer ---------------------------------
stage "tsan build + threaded tests"
TSAN_BUILD="$BUILD-tsan"
TSAN_TESTS="test_sweep test_obs test_inserter test_property test_common
    test_workloads test_sharing"
cmake -B "$TSAN_BUILD" -DPREFSIM_SANITIZE=thread -DPREFSIM_BUILD_BENCH=OFF \
    -DPREFSIM_BUILD_EXAMPLES=OFF
for t in $TSAN_TESTS; do
    cmake --build "$TSAN_BUILD" -j "$JOBS" --target "$t"
    "$TSAN_BUILD/tests/$t"
done
echo "ok: $TSAN_TESTS clean under ThreadSanitizer"

# --- configuration 3: ASan+UBSan with runtime invariant hooks ---------
stage "asan+ubsan+verify-hooks build + tests"
ASAN_BUILD="$BUILD-asan"
cmake -B "$ASAN_BUILD" -DPREFSIM_SANITIZE=address -DPREFSIM_VERIFY=ON \
    -DPREFSIM_BUILD_BENCH=OFF -DPREFSIM_BUILD_EXAMPLES=OFF
cmake --build "$ASAN_BUILD" -j "$JOBS"
ctest --test-dir "$ASAN_BUILD" -j "$JOBS" --output-on-failure
echo "ok: full suite clean under ASan+UBSan with PREFSIM_VERIFY=ON"

stage ""
echo "all checks passed"
