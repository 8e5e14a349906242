#!/bin/sh
# Standing byte-identity check: every experiment's tables and stats
# document, reduced to two hashes.
#
#   scripts/surfaces.sh            print the hashes of this tree
#   scripts/surfaces.sh --check    ...and fail unless they match SURFACES.sha256
#
# Runs `iobench all --quick --jobs 1 --stats-json` (146 runs, ~2 s) and
# prints the sha256 of its stdout and of the stats document. Virtual time
# is a pure function of the configuration and the simulator's only libm
# call is sqrt (exactly rounded), so the hashes do not depend on the host.
#
# The run gets 512 MB of address space. It peaks near 60 MB when each
# world is freed with its run and passed 2 GB when none was, so a world
# that outlives its `Sim` again fails here, in the tier-1 gate.
#
# A change that is meant to leave simulator behaviour alone must leave
# SURFACES.sha256 alone. One that moves behaviour re-baselines it
# (`scripts/surfaces.sh > SURFACES.sha256`) and says in CHANGES.md what
# moved and why.
set -eu

cd "$(dirname "$0")/.."

CHECK=no
case "${1:-}" in
    "") ;;
    --check) CHECK=yes ;;
    *)
        echo "usage: scripts/surfaces.sh [--check]" >&2
        exit 2
        ;;
esac

cargo build --release -p iobench
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
(
    ulimit -v 524288
    target/release/iobench all --quick --jobs 1 --stats-json "$TMP/stats.json" \
        >"$TMP/stdout.txt" 2>/dev/null
)
{
    echo "stdout $(sha256sum <"$TMP/stdout.txt" | cut -d' ' -f1)"
    echo "stats  $(sha256sum <"$TMP/stats.json" | cut -d' ' -f1)"
} >"$TMP/now.sha256"
cat "$TMP/now.sha256"

if [ "$CHECK" = yes ]; then
    if ! cmp -s "$TMP/now.sha256" SURFACES.sha256; then
        echo "surfaces moved: expected (SURFACES.sha256)" >&2
        cat SURFACES.sha256 >&2
        exit 1
    fi
    echo "surfaces match SURFACES.sha256"
fi
