#!/bin/sh
# Simulation-core throughput benchmark: runs the paper's main result
# (prefsim_repro fig2_exec_time) under both engines — the reference
# cycle loop and the local-clock core — and records wall time and engine
# throughput to a JSON report. A second, 3-processor micro run covers
# the low-contention regime where inert spans are long.
#
# Single-run timing is noisy (15-30% VM jitter), so every
# configuration runs --trials times (default 3) and the trial with the
# median sim-only time is what the report records. Trials run
# round-robin across the four configurations, so host drift between
# rounds lands on both engines of a ratio alike; each round prints its
# own engine ratios. A "load:" line (1/5/15-minute load average and
# nproc) before the first round and after the last shows whether the
# host was quiet enough to trust the run.
#
# Usage: scripts/bench_perf.sh [--refs N] [--out FILE] [--build DIR]
#        [--trials N] [--history FILE]
#   --refs N    demand references per processor (default 100000, the
#               acceptance configuration; use a small N for smoke runs)
#   --out FILE  report destination (default BENCH_simcore.json)
#   --build DIR build directory (default build)
#   --trials N  runs per configuration; the median is reported
#               (default 3)
#   --history FILE  cumulative trend log (default BENCH_history.jsonl;
#               "none" disables). After the report publishes, every
#               median row is appended as one prefsim-bench-history-v1
#               JSON object per line; prefsim_report --compare FILE
#               plots and gates the per-configuration trend.
#
# Engine results are identical by contract, so the experiment cache
# would serve one engine's numbers to the other; every run below uses
# --no-cache to force real simulation.
set -e
REFS=100000
OUT=BENCH_simcore.json
BUILD=build
TRIALS=3
HISTORY=BENCH_history.jsonl
while [ $# -gt 0 ]; do
    case "$1" in
        --refs) REFS=$2; shift 2 ;;
        --out) OUT=$2; shift 2 ;;
        --build) BUILD=$2; shift 2 ;;
        --trials) TRIALS=$2; shift 2 ;;
        --history) HISTORY=$2; shift 2 ;;
        *) echo "unknown option: $1" >&2; exit 1 ;;
    esac
done

# --refs and --trials must be positive decimal integers, with no
# leading zero (the shell's arithmetic reads 010 as octal): a zero trial
# count would publish a report of NaN rates, and a non-number would
# reach the shell's arithmetic or prefsim_repro.
require_count() {
    case "$2" in
        ''|*[!0-9]*|0*)
            echo "error: $1 wants a positive integer, got '$2'" >&2
            echo "usage: scripts/bench_perf.sh [--refs N] [--out FILE]" \
                 "[--build DIR] [--trials N] [--history FILE]" >&2
            exit 1 ;;
    esac
}
require_count --refs "$REFS"
require_count --trials "$TRIALS"

BENCH="$BUILD/bench/prefsim_repro"
if [ ! -x "$BENCH" ]; then
    echo "error: $BENCH not built (cmake --build $BUILD)" >&2
    exit 1
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP" "$OUT.tmp"' EXIT

# One trial of one benchmark configuration: wall-clock it, pull the
# simulation volume out of the sweep telemetry and append a line to the
# configuration's trial list. Fails fast — a crashed run, a missing
# metrics file or zero parsed simulation volume aborts the script
# before a partial or misleading report can be written (the report only
# moves into place at the end).
# $1 = label, $2 = engine, $3 = procs, $4 = trial number
run_trial() {
    label=$1
    engine=$2
    procs=$3
    i=$4
    metrics="$TMP/$label.$i.metrics.json"
    start=$(date +%s.%N)
    # Capture the status before testing it: inside "if ! cmd", $? is
    # the negation's status, always 0.
    status=0
    "$BENCH" fig2_exec_time --refs "$REFS" --procs "$procs" \
        --engine "$engine" --no-cache --quiet --metrics-out "$metrics" \
        > /dev/null || status=$?
    if [ "$status" -ne 0 ]; then
        echo "error: $label trial $i crashed (exit $status)" >&2
        exit 1
    fi
    end=$(date +%s.%N)
    if [ ! -s "$metrics" ]; then
        echo "error: $label trial $i wrote no metrics file" >&2
        exit 1
    fi
    # grep -o keeps this POSIX-sh + awk only; the telemetry writer
    # emits compact one-line JSON.
    cycles=$(grep -o '"simulated_cycles":[0-9]*' "$metrics" \
        | cut -d: -f2)
    refs=$(grep -o '"simulated_refs":[0-9]*' "$metrics" \
        | cut -d: -f2)
    simns=$(grep -o '"simulate_nanos":[0-9]*' "$metrics" \
        | cut -d: -f2)
    for field in "cycles:$cycles" "refs:$refs" \
                 "simulate_nanos:$simns"; do
        case "${field#*:}" in
            ''|0)
                echo "error: $label trial $i metrics missing" \
                     "${field%%:*} (truncated telemetry?)" >&2
                exit 1 ;;
        esac
    done
    awk -v s="$start" -v t="$end" -v n="$simns" -v c="$cycles" \
        -v r="$refs" \
        'BEGIN { printf "%.6f %.6f %d %d\n", n / 1e9, t - s, c, r }' \
        >> "$TMP/$label.trials.txt"
}

# Sim-only seconds of the latest trial of configuration $1.
last_simonly() {
    tail -n 1 "$TMP/$1.trials.txt" | cut -d' ' -f1
}

# Report one configuration: pick the trial with the median sim-only
# time and append a JSON fragment for the report.
# $1 = label, $2 = engine, $3 = procs
summarize() {
    label=$1
    engine=$2
    procs=$3
    # The median trial, ranked on sim-only seconds (column 1).
    median=$(sort -n "$TMP/$label.trials.txt" \
        | awk -v m=$(( (TRIALS + 1) / 2 )) 'NR == m')
    set -- $median
    simonly=$1
    wall=$2
    cycles=$3
    refs=$4
    awk -v l="$label" -v e="$engine" -v p="$procs" -v k="$TRIALS" \
        -v w="$wall" -v c="$cycles" -v r="$refs" -v so="$simonly" 'BEGIN {
        printf "\"%s\":{\"engine\":\"%s\",\"procs\":%d,", l, e, p
        printf "\"trials\":%d,", k
        printf "\"wall_s\":%.3f,\"sim_only_s\":%.3f,", w, so
        printf "\"sim_cycles\":%d,\"sim_refs\":%d,", c, r
        printf "\"cycles_per_s\":%.0f,\"refs_per_s\":%.0f}", c / w, r / w
    }' >> "$TMP/runs.json"
    # Keyed sim-only seconds for the speedup block below: label-addressed,
    # never positional (a reordered or added run must not corrupt the
    # ratios).
    awk -v l="$label" -v so="$simonly" \
        'BEGIN { printf "%s %.6f\n", l, so }' >> "$TMP/simonly.txt"
    # One trend-log line per median row; held back until the report
    # publishes so an aborted run appends nothing.
    awk -v u="$STAMP" -v l="$label" -v e="$engine" -v p="$procs" \
        -v rf="$REFS" \
        -v w="$wall" -v c="$cycles" -v r="$refs" -v so="$simonly" 'BEGIN {
        printf "{\"schema\":\"prefsim-bench-history-v1\",\"utc\":\"%s\",", u
        printf "\"label\":\"%s\",\"engine\":\"%s\",\"procs\":%d,", l, e, p
        printf "\"refs_per_proc\":%d,", rf
        printf "\"wall_s\":%.3f,\"sim_only_s\":%.3f,", w, so
        printf "\"sim_cycles\":%d,\"cycles_per_s\":%.0f}\n", c, c / so
    }' >> "$TMP/history.jsonl"
    echo "$label: $(awk -v w="$wall" \
        'BEGIN { printf "%.1f", w }')s wall (median of $TRIALS trials)"
}

STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# The configurations as label:engine:procs, in report order.
CONFIGS="fig2_cycle:cycle:16 fig2_local:local:16 micro3_cycle:cycle:3
micro3_local:local:3"

# Run "$1 label engine procs [args...]" for configuration $2.
with_config() {
    fn=$1
    config=$2
    shift 2
    rest=${config#*:}
    "$fn" "${config%%:*}" "${rest%%:*}" "${rest#*:}" "$@"
}

# The "load:" line of the header: a loaded host spreads the trials more
# than most changes move them.
print_load() {
    echo "load: $(cut -d' ' -f1-3 /proc/loadavg 2>/dev/null ||
        echo unknown) nproc $(nproc 2>/dev/null || echo unknown)"
}

echo "== simcore throughput (refs=$REFS, report: $OUT)"
print_load
for config in $CONFIGS; do
    : > "$TMP/${config%%:*}.trials.txt"
done
i=1
while [ "$i" -le "$TRIALS" ]; do
    for config in $CONFIGS; do
        with_config run_trial "$config" "$i"
    done
    awk -v i="$i" -v fc="$(last_simonly fig2_cycle)" \
        -v fl="$(last_simonly fig2_local)" \
        -v mc="$(last_simonly micro3_cycle)" \
        -v ml="$(last_simonly micro3_local)" 'BEGIN {
        printf "trial %d: fig2 %.2fx, micro3 %.2fx (cycle/local sim-only)\n",
            i, fc / fl, mc / ml
    }'
    i=$((i + 1))
done
print_load
sep=
for config in $CONFIGS; do
    printf '%s' "$sep" >> "$TMP/runs.json"
    sep=,
    with_config summarize "$config"
done

{
    printf '{"schema":"prefsim-bench-simcore-v1",'
    printf '"bench":"prefsim_repro fig2_exec_time",'
    printf '"refs_per_proc":%s,' "$REFS"
    printf '"trials":%s,' "$TRIALS"
    printf '"runs":{'
    cat "$TMP/runs.json"
    printf '},'
    # Headline speedups on sim-only time, keyed by run label: the
    # reference cycle loop vs. the local-clock core.
    awk '{ t[$1] = $2 } END {
        printf "\"speedup_fig2_sim\":%.2f,", t["fig2_cycle"] / t["fig2_local"]
        printf "\"speedup_micro3_sim\":%.2f", \
            t["micro3_cycle"] / t["micro3_local"]
    }' "$TMP/simonly.txt"
    printf '}\n'
} > "$OUT.tmp"

# Atomic publish: $OUT never holds a partial document, even if a run
# above aborted the script.
mv "$OUT.tmp" "$OUT"
echo "report: $OUT"
awk '{ print }' "$OUT"

# Only a published report extends the cumulative trend log; inspect it
# with: prefsim_report --compare $HISTORY
if [ "$HISTORY" != "none" ]; then
    cat "$TMP/history.jsonl" >> "$HISTORY"
    echo "history: $HISTORY ($(wc -l < "$HISTORY") entries)"
fi
