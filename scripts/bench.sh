#!/bin/sh
# Wall-clock benchmark suite + parallel-determinism check.
#
#   scripts/bench.sh [--smoke] [--out PATH]
#
# 1. Verifies the `--jobs` contract: `iobench fig10 --quick` must emit
#    byte-identical stdout, --stats-json, --trace, and --timeline output
#    at jobs=1 and jobs=4 — with the host profiler (--perf) armed, which
#    must observe without perturbing.
# 2. Checks every experiment's stdout and stats document against the
#    committed hashes (scripts/surfaces.sh, SURFACES.sha256).
# 3. Runs the wallclock bench (crates/bench/benches/wallclock.rs) and
#    writes BENCH_iobench.json (schema iobench-bench/v3; see DESIGN.md
#    "Wall-clock performance"), attaching the host profile
#    (BENCH_iobench.perf.json) so a bad parallel speedup arrives with
#    per-worker utilization to diagnose it. A speedup below 1.0x sets
#    the document's "attention" marker and prints a loud warning — the
#    benchmark still exits 0 (slow is a finding, not a failure).
#
# --smoke shrinks the workloads for CI.
set -eu

cd "$(dirname "$0")/.."

MODE=full
OUT="$PWD/BENCH_iobench.json"
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) MODE=smoke ;;
        --out)
            shift
            [ $# -gt 0 ] || { echo "--out requires a path" >&2; exit 2; }
            OUT=$1
            ;;
        *)
            echo "usage: scripts/bench.sh [--smoke] [--out PATH]" >&2
            exit 2
            ;;
    esac
    shift
done

cargo build --release -p iobench

# Determinism: --jobs must change only wall-clock time, never a byte of
# output.
BIN=target/release/iobench
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
"$BIN" fig10 --quick --jobs 1 --stats-json "$TMP/s1.json" --trace "$TMP/t1.json" \
    --timeline "$TMP/l1.json" >"$TMP/out1.txt"
# The jobs=4 leg also arms the host profiler: profiling must not move a
# byte of any virtual-time output surface.
"$BIN" fig10 --quick --jobs 4 --stats-json "$TMP/s4.json" --trace "$TMP/t4.json" \
    --timeline "$TMP/l4.json" --perf "$TMP/perf.json" >"$TMP/out4.txt" 2>"$TMP/perf.txt"
cmp "$TMP/out1.txt" "$TMP/out4.txt"
cmp "$TMP/s1.json" "$TMP/s4.json"
cmp "$TMP/t1.json" "$TMP/t4.json"
cmp "$TMP/l1.json" "$TMP/l4.json"
grep -q '"schema":"iobench-timeline/v1"' "$TMP/l1.json"
grep -q '"schema":"iobench-perf/v1"' "$TMP/perf.json"
echo "jobs=1 vs jobs=4 (profiled): stdout, stats, trace, and timeline are byte-identical"

# Same contract for the RAID volume experiment (fan-out across spindles
# must not leak scheduling nondeterminism into any output surface).
"$BIN" volume --volume raid5:3:32k --quick --jobs 1 \
    --stats-json "$TMP/v1.json" --trace "$TMP/vt1.json" >"$TMP/vout1.txt"
"$BIN" volume --volume raid5:3:32k --quick --jobs 4 \
    --stats-json "$TMP/v4.json" --trace "$TMP/vt4.json" >"$TMP/vout4.txt"
cmp "$TMP/vout1.txt" "$TMP/vout4.txt"
cmp "$TMP/v1.json" "$TMP/v4.json"
cmp "$TMP/vt1.json" "$TMP/vt4.json"
grep -q 'disk.busy_ns{spindle=' "$TMP/v1.json"
echo "volume jobs=1 vs jobs=4: stdout, stats JSON, and trace are byte-identical"

# Same contract for the fault-injection experiment (injected faults,
# degraded service, and the online rebuild are all seeded virtual-time
# events; a custom plan must replay byte-identically too).
"$BIN" faults --quick --jobs 1 --stats-json "$TMP/f1.json" >"$TMP/fout1.txt"
"$BIN" faults --quick --jobs 4 --stats-json "$TMP/f4.json" >"$TMP/fout4.txt"
cmp "$TMP/fout1.txt" "$TMP/fout4.txt"
cmp "$TMP/f1.json" "$TMP/f4.json"
grep -q 'fault.injected' "$TMP/f1.json"
"$BIN" --faults 'seed=7,transient=0:100+64x2,die=1@2s' --volume raid5:4:16k \
    --quick --jobs 1 >"$TMP/fpout1.txt"
"$BIN" --faults 'seed=7,transient=0:100+64x2,die=1@2s' --volume raid5:4:16k \
    --quick --jobs 4 >"$TMP/fpout4.txt"
cmp "$TMP/fpout1.txt" "$TMP/fpout4.txt"
echo "faults jobs=1 vs jobs=4: stdout and stats JSON are byte-identical"

# Same contract for the aging study (two virtual worlds churned on
# separate workers must still re-emit deterministically in plan order).
"$BIN" aging --quick --jobs 1 --stats-json "$TMP/a1.json" >"$TMP/aout1.txt"
"$BIN" aging --quick --jobs 4 --stats-json "$TMP/a4.json" >"$TMP/aout4.txt"
cmp "$TMP/aout1.txt" "$TMP/aout4.txt"
cmp "$TMP/a1.json" "$TMP/a4.json"
grep -q '"id":"aging/extentfs"' "$TMP/a1.json"
echo "aging jobs=1 vs jobs=4: stdout and stats JSON are byte-identical"

# Same contract for the adaptive-readahead sweep (30 runs across two file
# systems and three prefetch policies; the prefetch counters in the stats
# document are part of the byte-identity surface).
"$BIN" readahead --quick --jobs 1 --stats-json "$TMP/r1.json" >"$TMP/rout1.txt"
"$BIN" readahead --quick --jobs 4 --stats-json "$TMP/r4.json" >"$TMP/rout4.txt"
cmp "$TMP/rout1.txt" "$TMP/rout4.txt"
cmp "$TMP/r1.json" "$TMP/r4.json"
grep -q 'io.prefetch_issued' "$TMP/r1.json"
grep -q '"id":"readahead/ufs-A/adaptive/s256/r8"' "$TMP/r1.json"
echo "readahead jobs=1 vs jobs=4: stdout and stats JSON are byte-identical"

# Every experiment against the committed baseline. New experiments get
# their determinism coverage here, not another cmp leg above.
scripts/surfaces.sh --check

if [ "$MODE" = smoke ]; then
    cargo bench -p bench --bench wallclock -- --smoke --out "$OUT"
else
    cargo bench -p bench --bench wallclock -- --out "$OUT"
fi

# Attach a host profile of the same parallel workload the bench timed, so
# the report names where the wall-clock went (per-worker utilization, top
# phase sinks). Diagnostic only: not part of the byte-identity surface.
PERF_OUT="${OUT%.json}.perf.json"
"$BIN" fig10 --quick --perf "$PERF_OUT" >/dev/null
echo "wrote host profile to $PERF_OUT"

# A parallel "speedup" below 1.0x means the fan-out made things slower;
# the bench marks the document (attention != 0) and we shout about it
# here, pointing at the profile that explains it.
if grep -q '"attention":0' "$OUT"; then
    echo "parallel speedup OK (attention marker clear)"
else
    echo "" >&2
    echo "##################################################################" >&2
    echo "# ATTENTION: parallel fig10 ran SLOWER than serial on this host. #" >&2
    echo "# See \"parallel\" (speedup, per-worker utilization) in:          #" >&2
    echo "#   $OUT" >&2
    echo "# and the host profile (top wall-clock sinks) in:                #" >&2
    echo "#   $PERF_OUT" >&2
    echo "##################################################################" >&2
fi
