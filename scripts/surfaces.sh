#!/bin/sh
# Standing byte-identity check: every experiment's tables as committed
# text, and the stats document reduced to a hash.
#
#   scripts/surfaces.sh            rewrite SURFACES.txt and SURFACES.sha256
#                                  from this tree (a re-baseline)
#   scripts/surfaces.sh --check    fail unless this tree's stdout equals
#                                  SURFACES.txt and its stats hash equals
#                                  SURFACES.sha256
#
# Runs `iobench all --jobs 1 --stats-json`: every experiment at the
# paper's sizes (146 runs, ~6 s on a 2-core x86-64 host).
# SURFACES.txt is its stdout; SURFACES.sha256 holds the sha256 of the
# stats document. Virtual time is a pure function of the configuration and
# the simulator's only libm call is sqrt (exactly rounded), so neither
# depends on the host.
#
# The run gets 512 MB of address space. It peaks near 120 MB when each
# world is freed with its run; when none was, even a quarter-size run
# passed 2 GB. So a world that outlives its `Sim` again fails here, in the
# tier-1 gate.
#
# A change that is meant to leave simulator behaviour alone must leave both
# files alone. One that moves behaviour re-baselines them, so `git diff
# SURFACES.txt` shows the cells that moved, and says in CHANGES.md why.
# When the stats hash differs, --check keeps the document as
# target/surfaces-stats.json, to diff key by key against the parent's.
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
    target/release/iobench all --jobs 1 --stats-json "$TMP/stats.json" \
        >"$TMP/stdout.txt" 2>/dev/null
)
echo "stats  $(sha256sum <"$TMP/stats.json" | cut -d' ' -f1)" >"$TMP/now.sha256"

if [ "$CHECK" = no ]; then
    cp "$TMP/stdout.txt" SURFACES.txt
    cp "$TMP/now.sha256" SURFACES.sha256
    echo "rewrote SURFACES.txt and SURFACES.sha256; review them with git diff"
    exit 0
fi

status=0
if ! diff -u SURFACES.txt "$TMP/stdout.txt" >&2; then
    echo "surfaces moved: stdout differs from SURFACES.txt (diff above)" >&2
    status=1
fi
if ! cmp -s "$TMP/now.sha256" SURFACES.sha256; then
    echo "surfaces moved: stats document hash differs" >&2
    echo "  expected $(cat SURFACES.sha256)" >&2
    echo "  got      $(cat "$TMP/now.sha256")" >&2
    cp "$TMP/stats.json" target/surfaces-stats.json
    echo "  kept this tree's stats document as target/surfaces-stats.json" >&2
    status=1
fi
[ "$status" -eq 0 ] && echo "surfaces match SURFACES.txt and SURFACES.sha256"
exit "$status"
