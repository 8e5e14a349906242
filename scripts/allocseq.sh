#!/bin/sh
# Heap-call sequences of a twoclock run, one line per process.
#
#   scripts/allocseq.sh <twoclock binary> <workload> [twoclock flags...]
#
# Builds scripts/allocseq.c (an LD_PRELOAD library that hashes each
# process's sequence of (call, size) heap calls and pins getrandom), runs
#
#   <binary> --workload <workload> --seed 0x1991 --seconds 0 --trace 0
#
# under it, and prints one sorted line per process: its arguments, its
# heap-call count and the hash. `--seconds 0` runs the fewest reps (a count
# rep and five timed reps), so the set of processes does not depend on
# wall-clock time. Extra flags are passed on after these, and override them.
#
# A change that leaves a workload's code path alone leaves these lines
# alone. Paths are part of what a process allocates (its own executable's,
# for one), so compare two builds whose checkouts sit at paths of equal
# length. The parent process formats wall-clock results, so its line may
# differ between two runs of one build; a rep's line may not.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: scripts/allocseq.sh <twoclock binary> <workload> [flags...]" >&2
    exit 2
fi
BIN=$(realpath "$1")
WORKLOAD=$2
shift 2

HERE=$(cd "$(dirname "$0")" && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cc -O2 -shared -fPIC -o "$TMP/allocseq.so" "$HERE/allocseq.c"

ALLOCSEQ_OUT="$TMP/seq.txt" LD_PRELOAD="$TMP/allocseq.so" \
    "$BIN" --workload "$WORKLOAD" --seed 0x1991 --seconds 0 --trace 0 "$@" >/dev/null
sort "$TMP/seq.txt"
