#!/usr/bin/env bash
# prefsim end-to-end benchmark runner.
#
# Builds bench/perf/prefsim_bench from this checkout's sources (into
# .bench_build/perf, first run only) and runs one workload, or all four
# when --workload is not given, each in its own process so peak_rss_mb
# is per workload.
#
# usage: bench/perf/run.sh [--workload NAME] [--seed N] [--seconds S]
#                          [--trace 0|1] [--trace-out FILE]
#        (--trace-out writes the spans of one workload; give --workload)
#        bench/perf/run.sh --write-golden [--seed N]
#
# For each workload it prints every metric as "workload metric value
# unit" and then, as the last line of standard output, the result:
#   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
# The full result, with the build and machine stamp, is published
# atomically to .bench_build/perf/results/<workload>.json.
#
# It fails fast (non-zero exit) when prefsim_bench crashes, a metric named
# in BENCHMARK.json is missing, or any output disagrees with its golden
# file or the oracle (failed > 0).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/perf"

workloads="fig2_16p fig2_4p prepare observed"
seed=12345
seconds=20
trace=0
trace_out=
write_golden=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --trace-out) trace_out=$2; trace=1; shift 2 ;;
        --write-golden) write_golden=1; shift ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    esac
done

if [ ! -f "$root/src/core/sweep.hh" ] || [ ! -f "$root/BENCHMARK.json" ]
then
    echo "run.sh: no prefsim checkout around $here" \
         "(src/ and BENCHMARK.json are required)" >&2
    exit 2
fi

jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target prefsim_bench -j "$jobs" >&2

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) &&
    [ "$top" = "$root" ]; then
    commit=$(git -C "$root" rev-parse HEAD)
fi

if [ "$write_golden" = 1 ]; then
    exec "$build/prefsim_bench" --write-golden --seed "$seed" \
        --golden-dir "$here/golden" --commit "$commit"
fi

mkdir -p "$build/results"
for w in $workloads; do
    tmp="$build/results/$w.json.tmp"
    rm -f "$tmp"
    status=0
    "$build/prefsim_bench" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" --golden-dir "$here/golden" \
        --commit "$commit" --out "$tmp" \
        ${trace_out:+--trace-out "$trace_out"} || status=$?
    # Exit 1 is a completed run whose outputs failed their check (the
    # result says so); anything else means prefsim_bench did not finish.
    if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
        echo "run.sh: $w: prefsim_bench exited with status $status" >&2
        rm -f "$tmp"
        exit 1
    fi
    python3 - "$root/BENCHMARK.json" "$tmp" "$w" "$trace" <<'EOF'
import json
import sys

spec_path, result_path, workload, trace = sys.argv[1:]
spec = json.load(open(spec_path))
try:
    result = json.load(open(result_path))
except (OSError, ValueError) as err:
    sys.exit(f"run.sh: {workload}: unreadable result: {err}")
want = spec["per_layer" if trace == "1" else "end_to_end"]
metrics = result.get("metrics", {})
for m in want:
    got = metrics.get(m["name"])
    if got is None or got.get("unit") != m["unit"]:
        sys.exit(f"run.sh: {workload}: metric {m['name']} "
                 f"({m['unit']}) missing from the result")
for name, m in metrics.items():
    print(f"{workload} {name} {m['value']!r} {m['unit']}")
line = {k: result[k] for k in ("correct", "attempted", "failed")}
line["metrics"] = {m["name"]: metrics[m["name"]] for m in want}
print(json.dumps(line))
if not result["correct"] or result["failed"] > 0:
    sys.exit(f"run.sh: {workload}: {result['failed']} of "
             f"{result['attempted']} outputs failed their check")
EOF
    mv "$tmp" "$build/results/$w.json"
done
