#!/bin/sh
# stress: run CI's race x10 pass over the delta layer and the join entry
# points (the second command of its "Test (race, serving tier and delta
# layer x10)" step: the same packages, the same -run pattern) COUNT times
# while CPU burners of the script's own compete for every core. A test
# whose premise depends on the scheduler fails here within a sweep, where
# CI sees it one run in a dozen. Not a CI step: hosted runners differ too
# much to gate on.
#
#   make stress                                  # -count=50, nproc+2 burners
#   COUNT=200 BURNERS=3 RUN=SealedRunsUnderRacingWrites scripts/stress.sh
#
# COUNT (default 50) is the -count, BURNERS (default nproc+2) the number
# of busy-loop processes, RUN (default CI's pattern) the -run pattern.
# The burners are killed when the script exits, however it exits.
set -eu

COUNT=${COUNT:-50}
BURNERS=${BURNERS:-$(($(nproc) + 2))}
# Keep in step with .github/workflows/ci.yml.
RUN=${RUN:-'Mutable|Overlay|Delta|Update|Tier|Fold|Cancel|Limit|Sink|Streaming|Workers|ParallelJoin'}

PIDS=""
cleanup() {
    for P in $PIDS; do
        kill "$P" 2>/dev/null || true
    done
}
trap cleanup EXIT
trap 'exit 130' INT TERM

i=0
while [ "$i" -lt "$BURNERS" ]; do
    sh -c 'while :; do :; done' &
    PIDS="$PIDS $!"
    i=$((i + 1))
done

echo "stress: -race -count=$COUNT -run '$RUN' under $BURNERS burners" >&2
start=$(date +%s)
status=0
# go test's timeout covers every -count of a package at once, and its
# 10-minute default is shorter than 50 counts under the burners: allow
# two minutes a count, so only a hang trips it.
go test -race -count="$COUNT" -timeout "$((COUNT * 2))m" -run "$RUN" . ./internal/testutil || status=$?
echo "stress: $(($(date +%s) - start))s, exit $status" >&2
exit "$status"
