#!/bin/sh
# Parallel-determinism check.
#
#   scripts/bench.sh
#
# 1. Verifies the `--jobs` contract: `iobench fig10 --quick` must emit
#    byte-identical stdout, --stats-json, --trace, and --timeline output
#    at jobs=1 and jobs=4. The volume, faults, aging and readahead
#    experiments get the same check.
# 2. Checks every experiment's stdout and stats document against the
#    committed surfaces (scripts/surfaces.sh: the text in SURFACES.txt,
#    the stats hash in SURFACES.sha256).
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
"$BIN" fig10 --quick --jobs 1 --stats-json "$TMP/s1.json" --trace "$TMP/t1.json" \
    --timeline "$TMP/l1.json" >"$TMP/out1.txt"
"$BIN" fig10 --quick --jobs 4 --stats-json "$TMP/s4.json" --trace "$TMP/t4.json" \
    --timeline "$TMP/l4.json" >"$TMP/out4.txt"
cmp "$TMP/out1.txt" "$TMP/out4.txt"
cmp "$TMP/s1.json" "$TMP/s4.json"
cmp "$TMP/t1.json" "$TMP/t4.json"
cmp "$TMP/l1.json" "$TMP/l4.json"
grep -q '"schema":"iobench-timeline/v1"' "$TMP/l1.json"
echo "jobs=1 vs jobs=4: stdout, stats, trace, and timeline are byte-identical"

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
