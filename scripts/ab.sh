#!/bin/sh
# ab: price a change to one end-to-end metric of the committed benchmark
# with alternating pairs of runs, the only comparison that can show a
# timing change (two result files taken hours apart cannot).
#
#   scripts/ab.sh OLD NEW WORKLOAD METRIC [N] [benchmark flags...]
#   scripts/ab.sh HEAD~1 HEAD join_dense join_s 10
#   scripts/ab.sh HEAD HEAD join_dense join_s 2 -scale tiny
#
# OLD and NEW are git revisions. Each is checked out into a temporary
# git worktree and its ./benchmark built there, so the working tree is
# not touched and uncommitted edits take no part. The script then runs N
# pairs (default 10) of `-workload WORKLOAD`, the order inside a pair
# alternating (old first, then new first) so that a drift of the machine
# falls on both sides; any further flags go to every run. A run that
# reports a wrong answer or a failed operation stops the script.
#
# It prints each pair's values and change, both sides' medians and
# quartiles, in how many pairs NEW was lower, and one verdict line,
# with METRIC's direction ("better": lower or higher) taken from NEW's
# BENCHMARK.json:
#
#   verdict: met         NEW is better in at least 9 of 10 pairs and its
#                        median beats OLD's by more than OLD's quartile gap
#   verdict: worse       the same rule, the other way
#   verdict: unresolved  neither
set -eu

if [ $# -lt 4 ]; then
    echo "usage: $0 OLD NEW WORKLOAD METRIC [N] [benchmark flags...]" >&2
    exit 2
fi
OLD=$1 NEW=$2 WORKLOAD=$3 METRIC=$4
shift 4
N=10
if [ $# -gt 0 ]; then
    N=$1
    shift
fi
case $N in
'' | *[!0-9]* | 0)
    echo "ab: N must be a positive integer, got '$N'" >&2
    exit 2
    ;;
esac

oldrev=$(git rev-parse --verify "$OLD^{commit}")
newrev=$(git rev-parse --verify "$NEW^{commit}")
TMP=$(mktemp -d)
cleanup() {
    git worktree remove --force "$TMP/old" 2>/dev/null || true
    git worktree remove --force "$TMP/new" 2>/dev/null || true
    rm -rf "$TMP"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for side in old new; do
    rev=$oldrev
    [ "$side" = new ] && rev=$newrev
    git worktree add --quiet --detach "$TMP/$side" "$rev"
    (cd "$TMP/$side" && go build -o "$TMP/bench-$side" ./benchmark)
done

better=$(tr -d ' \n' <"$TMP/new/BENCHMARK.json" |
    sed -n 's/.*{"name":"'"$METRIC"'",[^}]*"better":"\([a-z]*\)".*/\1/p')
if [ "$better" != lower ] && [ "$better" != higher ]; then
    echo "ab: $METRIC is not a metric of BENCHMARK.json at $NEW" >&2
    exit 2
fi

# run SIDE PAIR [flags...]: one run of SIDE's benchmark with the flags;
# prints METRIC's value.
run() {
    side=$1 pair=$2
    shift 2
    out=$TMP/out-$side-$pair
    (cd "$TMP/$side" && "$TMP/bench-$side" -workload "$WORKLOAD" -outdir "$out" "$@") >"$out.log" 2>&1 || {
        echo "ab: the $side run of pair $pair failed:" >&2
        tail -n 20 "$out.log" >&2
        exit 1
    }
    last=$(tail -n 1 "$out.log")
    case $last in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        echo "ab: the $side run of pair $pair is not correct or has failed operations: $last" >&2
        exit 1
        ;;
    esac
    v=$(echo "$last" | sed -n 's/.*"'"$METRIC"'":{"value":\([^,}]*\).*/\1/p')
    if [ -z "$v" ]; then
        echo "ab: the $side run of pair $pair reports no $METRIC" >&2
        exit 1
    fi
    echo "$v"
}

echo "ab: $WORKLOAD $METRIC ($better is better), $N pairs, old $OLD ($(git rev-parse --short "$oldrev")) new $NEW ($(git rev-parse --short "$newrev"))"
: >"$TMP/pairs"
i=1
while [ "$i" -le "$N" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        o=$(run old "$i" "$@")
        n=$(run new "$i" "$@")
    else
        n=$(run new "$i" "$@")
        o=$(run old "$i" "$@")
    fi
    echo "$o $n" >>"$TMP/pairs"
    awk -v i="$i" -v o="$o" -v n="$n" 'BEGIN {
        printf "pair %d: old %.6g new %.6g change %+.2f%%\n", i, o, n, (o != 0 ? (n - o) / o * 100 : 0)
    }'
    i=$((i + 1))
done

# The quartiles are the benchmark's own (benchmark/metrics.go quartiles).
cut -d' ' -f1 "$TMP/pairs" | sort -g >"$TMP/old.sorted"
cut -d' ' -f2 "$TMP/pairs" | sort -g >"$TMP/new.sorted"
awk -v better="$better" '
function quart(v, n, i,    m, j, d) {
    if (n == 1) return v[1]
    m = n + 1
    j = int(i * m / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    d = i * m - j * 4
    return (v[j] * (4 - d) + v[j + 1] * d) / 4
}
FILENAME == ARGV[1] { pairs++; if ($2 < $1) lower++; if (better == "lower" ? $2 < $1 : $2 > $1) won++; if (better == "lower" ? $2 > $1 : $2 < $1) lost++; next }
FILENAME == ARGV[2] { old[++no] = $1; next }
{ new[++nn] = $1 }
END {
    oq1 = quart(old, no, 1); om = quart(old, no, 2); oq3 = quart(old, no, 3)
    nq1 = quart(new, nn, 1); nm = quart(new, nn, 2); nq3 = quart(new, nn, 3)
    printf "old: median %.6g, quartiles %.6g-%.6g\n", om, oq1, oq3
    printf "new: median %.6g, quartiles %.6g-%.6g\n", nm, nq1, nq3
    printf "new lower in %d of %d pairs; median change %+.2f%%\n", lower, pairs, (om != 0 ? (nm - om) / om * 100 : 0)
    need = pairs * 9 / 10
    gap = (better == "lower" ? om - nm : nm - om)
    verdict = "unresolved"
    if (won >= need && gap > oq3 - oq1) verdict = "met"
    else if (lost >= need && -gap > oq3 - oq1) verdict = "worse"
    printf "verdict: %s\n", verdict
}' "$TMP/pairs" "$TMP/old.sorted" "$TMP/new.sorted"
