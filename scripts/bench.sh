#!/bin/sh
# Parallel-determinism check.
#
#   scripts/bench.sh
#
# 1. Verifies the `--jobs` contract: `iobench fig10` must emit
#    byte-identical stdout, --stats-json, --trace, and --timeline output
#    at jobs=1 and jobs=4, and so must one RAID-5 volume and a custom
#    fault plan. `iobench all --jobs 4` must print SURFACES.txt and a
#    stats document whose hash is SURFACES.sha256, the jobs=1 baseline.
# 2. Checks every experiment's stdout and stats document at jobs=1
#    against the committed surfaces (scripts/surfaces.sh --check).
#
# Every run is at the paper's sizes. The fig10 traces are 160 MB each.
#
# These are correctness checks. Performance is measured by `benchmark/`
# (see benchmark/README.md).
set -eu

cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
    echo "usage: scripts/bench.sh" >&2
    exit 2
fi

cargo build --release -p iobench

# Determinism: --jobs must change only wall-clock time, never a byte of
# output.
BIN=target/release/iobench
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
"$BIN" fig10 --jobs 1 --stats-json "$TMP/s1.json" --trace "$TMP/t1.json" \
    --timeline "$TMP/l1.json" >"$TMP/out1.txt"
"$BIN" fig10 --jobs 4 --stats-json "$TMP/s4.json" --trace "$TMP/t4.json" \
    --timeline "$TMP/l4.json" >"$TMP/out4.txt"
cmp "$TMP/out1.txt" "$TMP/out4.txt"
cmp "$TMP/s1.json" "$TMP/s4.json"
cmp "$TMP/t1.json" "$TMP/t4.json"
cmp "$TMP/l1.json" "$TMP/l4.json"
grep -q '"schema":"iobench-timeline/v1"' "$TMP/l1.json"
echo "jobs=1 vs jobs=4: stdout, stats, trace, and timeline are byte-identical"

# Same contract for the RAID volume experiment (fan-out across spindles
# must not leak scheduling nondeterminism into any output surface).
"$BIN" volume --volume raid5:3:32k --jobs 1 \
    --stats-json "$TMP/v1.json" --trace "$TMP/vt1.json" >"$TMP/vout1.txt"
"$BIN" volume --volume raid5:3:32k --jobs 4 \
    --stats-json "$TMP/v4.json" --trace "$TMP/vt4.json" >"$TMP/vout4.txt"
cmp "$TMP/vout1.txt" "$TMP/vout4.txt"
cmp "$TMP/v1.json" "$TMP/v4.json"
cmp "$TMP/vt1.json" "$TMP/vt4.json"
grep -q 'disk.busy_ns{spindle=' "$TMP/v1.json"
echo "volume jobs=1 vs jobs=4: stdout, stats JSON, and trace are byte-identical"

# A custom fault plan (one array, transient errors, a death mid-run) must
# replay byte-identically too.
"$BIN" --faults 'seed=7,transient=0:100+64x2,die=1@2s' --volume raid5:4:16k \
    --jobs 1 >"$TMP/fpout1.txt"
"$BIN" --faults 'seed=7,transient=0:100+64x2,die=1@2s' --volume raid5:4:16k \
    --jobs 4 >"$TMP/fpout4.txt"
cmp "$TMP/fpout1.txt" "$TMP/fpout4.txt"
echo "custom fault plan jobs=1 vs jobs=4: stdout is byte-identical"

# Every experiment at jobs=4 against the jobs=1 baseline. New experiments
# get their determinism coverage here, not another cmp leg above.
"$BIN" all --jobs 4 --stats-json "$TMP/all4.json" >"$TMP/all4.txt"
cmp "$TMP/all4.txt" SURFACES.txt
echo "stats  $(sha256sum <"$TMP/all4.json" | cut -d' ' -f1)" | cmp - SURFACES.sha256
echo "all jobs=4: stdout is SURFACES.txt and the stats hash is SURFACES.sha256"

# And at jobs=1.
scripts/surfaces.sh --check
