#!/bin/sh
# serve-smoke: boot touchserved on a random port, exercise healthz, one
# query per shape (range/point/knn), a join, the catalog listing, the
# metrics endpoint and one error mapping over real HTTP; then replay the
# same queries over the binary wire listener as one pipelined touchwire
# batch and require byte-identical answers, before asserting a clean
# graceful shutdown of both listeners on SIGTERM. A second phase checks
# crash recovery: two datasets in a durable catalog, kill -9, restart,
# and the catalog must come back identical — same versions, same
# answers, no rebuilds — with corrupt snapshot files quarantined, not
# fatal. A third phase boots two replicas behind a touchrouter: routed
# answers must match a direct backend byte-for-byte, and kill -9 on one
# replica must leave reads working while the router's metrics record
# the ejection. CI runs this via `make serve-smoke`.
set -eu

WORK=$(mktemp -d)
BIN="$WORK/touchserved"
LOG="$WORK/touchserved.log"
DATA="$WORK/smoke.txt"

# cleanup runs on every exit path, including mid-phase failures and
# signals: kill the server if one is still up, reap it so no orphan
# outlives the script, then drop the temp dir.
cleanup() {
    for P in "${PID:-}" "${BPID1:-}" "${BPID2:-}" "${RPID:-}"; do
        [ -n "$P" ] || continue
        kill "$P" 2>/dev/null || true
        wait "$P" 2>/dev/null || true
    done
    PID= BPID1= BPID2= RPID=
    rm -rf "$WORK"
}
trap cleanup EXIT
# A signal must clean up and then report the interruption, not fall
# through to the success path: re-raise INT for the caller, exit 143
# (128+SIGTERM) on TERM.
trap 'cleanup; trap - INT EXIT; kill -INT $$' INT
trap 'cleanup; trap - EXIT; exit 143' TERM

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

go build -o "$BIN" ./cmd/touchserved
WIREBIN="$WORK/touchwire"
go build -o "$WIREBIN" ./cmd/touchwire
RBIN="$WORK/touchrouter"
go build -o "$RBIN" ./cmd/touchrouter

# Three known boxes so every query has a predictable answer.
printf '0 0 0 10 10 10\n5 5 5 15 15 15\n20 20 20 30 30 30\n' > "$DATA"

"$BIN" -addr 127.0.0.1:0 -bin-addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
    -slow-query-ms 1 -load smoke="$DATA" > "$LOG" 2>&1 &
PID=$!

# wait_addr: block until the startup line carries the randomly chosen
# port, setting BASE. Reads the log named in $LOG. The slog text handler
# quotes messages containing spaces, so the capture stops at the first
# space or closing quote.
wait_addr() {
    ADDR=
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's/.*touchserved listening on \([^ "]*\).*/\1/p' "$LOG" | head -n 1)
        [ -n "$ADDR" ] && break
        kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
        i=$((i + 1))
        sleep 0.1
    done
    [ -n "$ADDR" ] || fail "server never printed its listen address"
    BASE="http://$ADDR"
}

wait_addr
echo "serve-smoke: server on $BASE"

post() { curl -sf -X POST "$BASE$1" -H 'Content-Type: application/json' -d "$2"; }

curl -sf "$BASE/healthz" | grep -q '"status":"ok"' || fail "healthz"
curl -sf "$BASE/v1/datasets" | grep -q '"name":"smoke"' || fail "catalog listing"

post /v1/datasets/smoke/query '{"type":"range","box":[0,0,0,50,50,50]}' \
    | grep -q '"count":3' || fail "range query"
post /v1/datasets/smoke/query '{"type":"point","point":[6,6,6]}' \
    | grep -q '"count":2' || fail "point query"
post /v1/datasets/smoke/query '{"type":"knn","point":[1,1,1],"k":2}' \
    | grep -q '"count":2' || fail "knn query"
post /v1/datasets/smoke/join '{"boxes":[[4,4,4,6,6,6]]}' \
    | grep -q '"count":2' || fail "join"

# NDJSON streaming join: pair lines then a {"count":N} trailer marking a
# complete (non-truncated) stream.
NDJSON=$(curl -sf -X POST "$BASE/v1/datasets/smoke/join" \
    -H 'Content-Type: application/json' -H 'Accept: application/x-ndjson' \
    -d '{"boxes":[[4,4,4,6,6,6]]}')
echo "$NDJSON" | grep -q '^{"count":2}$' || fail "ndjson join trailer"
[ "$(echo "$NDJSON" | grep -c '^\[')" = "2" ] || fail "ndjson join pair lines"
curl -sf "$BASE/metrics" | grep -q 'touchserved_requests_total{class="query"} 3' \
    || fail "metrics"

# --- observability ------------------------------------------------------
# Per-request tracing: X-Touch-Trace must grow the response a trace
# object carrying the server-assigned request ID, and every admitted
# response must name its ID in the X-Touch-Request-Id header.
TRACED=$(curl -sf -X POST "$BASE/v1/datasets/smoke/query" \
    -H 'Content-Type: application/json' -H 'X-Touch-Trace: 1' \
    -d '{"type":"range","box":[0,0,0,50,50,50]}')
echo "$TRACED" | grep -q '"trace":{' || fail "traced query carries no trace: $TRACED"
echo "$TRACED" | grep -q '"request_id"' || fail "trace carries no request id: $TRACED"
echo "$TRACED" | grep -q '"comparisons"' || fail "trace carries no engine counters: $TRACED"
if curl -sf -D - -o /dev/null "$BASE/healthz" | grep -qi '^x-touch-request-id:'; then
    fail "unadmitted healthz grew a request id header"
fi
curl -sf -D - -o /dev/null -X POST "$BASE/v1/datasets/smoke/query" \
    -H 'Content-Type: application/json' -d '{"type":"point","point":[6,6,6]}' \
    | grep -qi '^x-touch-request-id:' || fail "response without X-Touch-Request-Id header"

# Build identity: /version over HTTP, and -version on the binary.
curl -sf "$BASE/version" | grep -q '"go_version"' || fail "/version shape"
"$BIN" -version | grep -q 'go1' || fail "-version output"

# Slow-query log: armed via -slow-query-ms, served as JSON on the main
# listener and as text on the debug listener; SIGUSR1 dumps it to stderr.
curl -sf "$BASE/debug/slowlog" | grep -q '"threshold_ms"' || fail "/debug/slowlog shape"
DADDR=$(sed -n 's/.*touchserved debug listening on \([^ "]*\).*/\1/p' "$LOG" | head -n 1)
[ -n "$DADDR" ] || fail "server never printed its debug listen address"
curl -sf "http://$DADDR/debug/slowlog" | grep -q 'slowlog:' || fail "debug slowlog mirror"
curl -sf "http://$DADDR/debug/pprof/cmdline" > /dev/null || fail "pprof on debug listener"
kill -USR1 "$PID"
i=0
while ! grep -q 'slowlog:' "$LOG"; do
    i=$((i + 1))
    [ $i -lt 50 ] || fail "SIGUSR1 never dumped the slow log"
    sleep 0.1
done
# CI exports the slow-query ring as an artifact when asked to.
if [ -n "${SLOWLOG_OUT:-}" ]; then
    curl -sf "$BASE/debug/slowlog" > "$SLOWLOG_OUT" || fail "slowlog artifact export"
fi

# Error mapping: unknown dataset must be a structured 404.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/datasets/ghost/query" \
    -H 'Content-Type: application/json' -d '{"type":"point","point":[0,0,0]}')
[ "$CODE" = "404" ] || fail "unknown dataset returned $CODE, want 404"

# --- binary wire protocol ----------------------------------------------
# The same four answers over the binary listener, pipelined in a single
# touchwire batch, must be byte-identical to the HTTP ones (join stats
# stripped on the HTTP side — they carry wall-clock timings the wire
# protocol doesn't transmit).

WADDR=$(sed -n 's/.*touchserved wire listening on \([^ "]*\).*/\1/p' "$LOG" | head -n 1)
[ -n "$WADDR" ] || fail "server never printed its wire listen address"
echo "serve-smoke: wire listener on $WADDR"

strip_stats() { sed 's/,"stats":{[^}]*}//'; }
HTTP_ANSWERS=$(
    post /v1/datasets/smoke/query '{"type":"range","box":[0,0,0,50,50,50]}'
    post /v1/datasets/smoke/query '{"type":"point","point":[6,6,6]}'
    post /v1/datasets/smoke/query '{"type":"knn","point":[1,1,1],"k":2}'
    post /v1/datasets/smoke/join '{"boxes":[[4,4,4,6,6,6]]}' | strip_stats
)
WIRE_ANSWERS=$("$WIREBIN" -addr "$WADDR" -dataset smoke \
    'range:0,0,0,50,50,50' 'point:6,6,6' 'knn:1,1,1,2' 'join:4,4,4,6,6,6') \
    || fail "touchwire probe"
[ "$WIRE_ANSWERS" = "$HTTP_ANSWERS" ] || fail "binary answers differ from HTTP:
http: $HTTP_ANSWERS
wire: $WIRE_ANSWERS"

# Traced wire probe: -trace keeps stdout byte-identical (so the diff
# above still holds) and writes the OpTrace breakdown to stderr.
WIRE_TRACE="$WORK/wire-trace.json"
TRACED_WIRE=$("$WIREBIN" -addr "$WADDR" -dataset smoke -trace \
    'range:0,0,0,50,50,50' 2> "$WIRE_TRACE") || fail "traced touchwire probe"
echo "$TRACED_WIRE" | grep -q '"count":3' || fail "traced wire answer"
grep -q '"request_id"' "$WIRE_TRACE" || fail "wire trace carries no request id"
grep -q '"comparisons"' "$WIRE_TRACE" || fail "wire trace carries no engine counters"

# The binary path reports under its own metric classes and connection
# gauge. The gauge drops when the server notices touchwire hung up, so
# give it a moment.
METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -q 'touchserved_requests_total{class="wire_query"} 4' \
    || fail "wire_query metrics"
echo "$METRICS" | grep -q 'touchserved_requests_total{class="wire_join"} 1' \
    || fail "wire_join metrics"
i=0
while ! curl -sf "$BASE/metrics" | grep -q 'touchserved_wire_connections 0'; do
    i=$((i + 1))
    [ $i -lt 50 ] || fail "wire connection gauge never returned to 0"
    sleep 0.1
done

# --- incremental updates -----------------------------------------------
# PATCH one insert and one delete into the pending delta; the merged
# answer must reflect both immediately, and the delta gauges must show
# the pending entries.
PATCHED=$(curl -sf -X PATCH "$BASE/v1/datasets/smoke" -H 'Content-Type: application/json' \
    -d '{"insert":[[40,40,40,41,41,41]],"delete":[0]}') || fail "patch request"
echo "$PATCHED" | grep -q '"inserted_ids":\[3\]' || fail "patch assigned ids: $PATCHED"
echo "$PATCHED" | grep -q '"deleted":1' || fail "patch deleted count: $PATCHED"
post /v1/datasets/smoke/query '{"type":"range","box":[0,0,0,50,50,50]}' \
    | grep -q '"ids":\[1,2,3\]' || fail "range after patch"
METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -q 'touchserved_delta_inserts{dataset="smoke"} 1' \
    || fail "delta insert gauge"
echo "$METRICS" | grep -q 'touchserved_delta_tombstones{dataset="smoke"} 1' \
    || fail "delta tombstone gauge"
echo "$METRICS" | grep -q 'touchserved_requests_total{class="update"} 1' \
    || fail "update metric class"

# Graceful shutdown: SIGTERM must drain both listeners and exit 0.
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
[ "$STATUS" = "0" ] || fail "server exited with status $STATUS"
grep -q 'drained, bye' "$LOG" || fail "no clean-drain log line"
PID=

# --- crash recovery -----------------------------------------------------
# Two datasets in a durable catalog, kill -9 mid-serve, restart over the
# same directory: both must answer identically (same versions, same
# results) without a single rebuild.

SNAPDIR="$WORK/snapshots"
DATA2="$WORK/smoke2.txt"
printf '0 0 0 2 2 2\n8 8 8 12 12 12\n' > "$DATA2"

LOG="$WORK/crash-before.log"
"$BIN" -addr 127.0.0.1:0 -data-dir "$SNAPDIR" -load smoke="$DATA" -load other="$DATA2" > "$LOG" 2>&1 &
PID=$!
wait_addr
echo "serve-smoke: durable server on $BASE"

LIST_BEFORE=$(curl -sf "$BASE/v1/datasets")
echo "$LIST_BEFORE" | grep -q '"persisted":true' || fail "datasets not persisted"
RANGE_BEFORE=$(post /v1/datasets/smoke/query '{"type":"range","box":[0,0,0,50,50,50]}')
# Join stats carry wall-clock timings; strip_stats (defined above)
# removes them before comparing.
JOIN_BEFORE=$(post /v1/datasets/other/join '{"boxes":[[1,1,1,9,9,9]]}' | strip_stats)

kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=

# A junk snapshot dropped into the directory must be quarantined on
# restart, never served and never fatal.
printf 'not a snapshot' > "$SNAPDIR/bogus.snap"

LOG="$WORK/crash-after.log"
"$BIN" -addr 127.0.0.1:0 -data-dir "$SNAPDIR" > "$LOG" 2>&1 &
PID=$!
wait_addr
echo "serve-smoke: recovered server on $BASE"

grep -q 'recovered 2 dataset(s)' "$LOG" || fail "recovery log line"
grep -q '(1 quarantined)' "$LOG" || fail "quarantine count in recovery log"
[ -f "$SNAPDIR/corrupt/bogus.snap" ] || fail "junk snapshot not moved to corrupt/"
# No rebuilds: the only index-build log line comes from -load preloads.
grep -q 'built in' "$LOG" && fail "recovery rebuilt an index"

LIST_AFTER=$(curl -sf "$BASE/v1/datasets")
[ "$LIST_AFTER" = "$LIST_BEFORE" ] || fail "catalog listing changed across crash:
before: $LIST_BEFORE
after:  $LIST_AFTER"
RANGE_AFTER=$(post /v1/datasets/smoke/query '{"type":"range","box":[0,0,0,50,50,50]}')
[ "$RANGE_AFTER" = "$RANGE_BEFORE" ] || fail "range answer changed across crash"
JOIN_AFTER=$(post /v1/datasets/other/join '{"boxes":[[1,1,1,9,9,9]]}' | strip_stats)
[ "$JOIN_AFTER" = "$JOIN_BEFORE" ] || fail "join answer changed across crash"
curl -sf "$BASE/metrics" | grep -q 'touchserved_snapshot_errors_total 0' \
    || fail "snapshot errors after clean recovery"

kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
[ "$STATUS" = "0" ] || fail "recovered server exited with status $STATUS"
PID=

# --- routing tier -------------------------------------------------------
# Two replicas serving the same dataset behind a touchrouter. Routed
# query answers must be byte-identical to a direct backend's; the
# routed join differs only by the stats object (the wire protocol the
# router proxies over doesn't transmit it). Then kill -9 one replica:
# reads through the router must keep succeeding — the first one fails
# over inside the same call — and the router's metrics must record the
# ejection.

# wait_for LOGFILE PREFIX: block until the startup line "PREFIX ADDR"
# appears in LOGFILE, echo ADDR.
wait_for() {
    i=0
    while [ $i -lt 100 ]; do
        A=$(sed -n "s/.*$2 \([^ \"]*\).*/\1/p" "$1" | head -n 1)
        [ -n "$A" ] && { echo "$A"; return 0; }
        i=$((i + 1))
        sleep 0.1
    done
    return 1
}

BLOG1="$WORK/replica-a.log"
BLOG2="$WORK/replica-b.log"
"$BIN" -addr 127.0.0.1:0 -bin-addr 127.0.0.1:0 -node-id replica-a -load smoke="$DATA" > "$BLOG1" 2>&1 &
BPID1=$!
"$BIN" -addr 127.0.0.1:0 -bin-addr 127.0.0.1:0 -node-id replica-b -load smoke="$DATA" > "$BLOG2" 2>&1 &
BPID2=$!
WADDR1=$(wait_for "$BLOG1" "touchserved wire listening on") || fail "replica-a wire address"
WADDR2=$(wait_for "$BLOG2" "touchserved wire listening on") || fail "replica-b wire address"
HADDR1=$(wait_for "$BLOG1" "touchserved listening on") || fail "replica-a http address"

LOG="$WORK/router.log"
"$RBIN" -addr 127.0.0.1:0 -bin-addr 127.0.0.1:0 -backends "$WADDR1,$WADDR2" -replication 2 \
    -health-interval 200ms > "$LOG" 2>&1 &
RPID=$!
RADDR=$(wait_for "$LOG" "touchrouter listening on") || fail "router address"
RWADDR=$(wait_for "$LOG" "touchrouter wire listening on") || fail "router wire address"
RBASE="http://$RADDR"
echo "serve-smoke: router on $RBASE over $WADDR1 $WADDR2"

rpost() { curl -sf -X POST "$RBASE$1" -H 'Content-Type: application/json' -d "$2"; }
dpost() { curl -sf -X POST "http://$HADDR1$1" -H 'Content-Type: application/json' -d "$2"; }

for Q in '{"type":"range","box":[0,0,0,50,50,50]}' \
         '{"type":"point","point":[6,6,6]}' \
         '{"type":"knn","point":[1,1,1],"k":2}'; do
    R=$(rpost /v1/datasets/smoke/query "$Q") || fail "routed query $Q"
    D=$(dpost /v1/datasets/smoke/query "$Q") || fail "direct query $Q"
    [ "$R" = "$D" ] || fail "routed answer differs from direct:
routed: $R
direct: $D"
done
RJ=$(rpost /v1/datasets/smoke/join '{"boxes":[[4,4,4,6,6,6]]}') || fail "routed join"
DJ=$(dpost /v1/datasets/smoke/join '{"boxes":[[4,4,4,6,6,6]]}' | strip_stats) || fail "direct join"
[ "$RJ" = "$DJ" ] || fail "routed join differs from direct:
routed: $RJ
direct: $DJ"

# The router's wire front relays frames, trace trailer included: a
# traced probe prints the same stdout as the untraced one and exactly
# one trace line, carrying the answering backend's request id.
ROUTED_WIRE=$("$WIREBIN" -addr "$RWADDR" -dataset smoke 'range:0,0,0,50,50,50') \
    || fail "routed touchwire probe"
ROUTED_TRACE="$WORK/routed-trace.json"
ROUTED_TRACED=$("$WIREBIN" -addr "$RWADDR" -dataset smoke -trace \
    'range:0,0,0,50,50,50' 2> "$ROUTED_TRACE") || fail "traced routed touchwire probe"
[ "$ROUTED_TRACED" = "$ROUTED_WIRE" ] || fail "traced routed answer differs from untraced:
traced:   $ROUTED_TRACED
untraced: $ROUTED_WIRE"
[ "$(wc -l < "$ROUTED_TRACE")" -eq 1 ] || fail "routed trace is not one line: $(cat "$ROUTED_TRACE")"
grep -q '"request_id":"[^"]' "$ROUTED_TRACE" || fail "routed trace carries no request id: $(cat "$ROUTED_TRACE")"

# Merged catalog: one row for smoke, provenance naming both replicas.
CAT=$(curl -sf "$RBASE/v1/datasets") || fail "routed catalog"
echo "$CAT" | grep -q '"backends":\["replica-a","replica-b"\]' \
    || fail "catalog provenance: $CAT"

kill -9 "$BPID1"
wait "$BPID1" 2>/dev/null || true
BPID1=

# Every read through the router must keep succeeding while the health
# checker notices the corpse; stop once the metrics show it ejected.
i=0
while :; do
    OUT=$(rpost /v1/datasets/smoke/query '{"type":"range","box":[0,0,0,50,50,50]}') \
        || fail "routed read failed after backend kill"
    echo "$OUT" | grep -q '"count":3' || fail "routed read wrong after kill: $OUT"
    curl -sf "$RBASE/metrics" \
        | grep -q 'touchrouter_backend_healthy{backend="replica-a"[^}]*} 0' && break
    i=$((i + 1))
    [ $i -lt 100 ] || fail "router never ejected the killed backend"
    sleep 0.1
done
EJ=$(curl -sf "$RBASE/metrics" | sed -n 's/^touchrouter_ejections_total \(.*\)/\1/p')
[ "${EJ:-0}" -ge 1 ] || fail "ejections_total is ${EJ:-unset} after kill"

kill -TERM "$RPID"
STATUS=0
wait "$RPID" || STATUS=$?
[ "$STATUS" = "0" ] || fail "router exited with status $STATUS"
grep -q 'drained, bye' "$LOG" || fail "no router clean-drain line"
RPID=
kill -TERM "$BPID2"
wait "$BPID2" 2>/dev/null || true
BPID2=

echo "serve-smoke: OK"
