#!/usr/bin/env bash
# Telemetry smoke: boots the real daemon, drives one request, and then
# asserts the /metrics exposition is well-formed and complete —
# required families present, every sample line parseable, no label
# drift on the request counters — and that the request's id resolves
# through the flight recorder. Finishes with a warm-reboot phase:
# SIGTERM the daemon, boot a second one on the same -cache-dir, and
# assert the replay is served from the restored store with an identical
# schedule, then boots once more on a copy of an old-format (persist v1)
# cache directory, which must be discarded, not restored. Run from
# anywhere; used by ci.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${PORT:-18080}
ADMIN_PORT=${ADMIN_PORT:-18081}
BASE="http://127.0.0.1:$PORT"
ADMIN="http://127.0.0.1:$ADMIN_PORT"

workdir=$(mktemp -d -t syccl_metrics_smoke.XXXXXX)
trap 'kill "$daemon_pid" 2>/dev/null || true; wait "$daemon_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/syccl-serve" ./cmd/syccl-serve

# boot LOG CACHE_DIR [FLAGS...] starts the daemon and waits for /healthz.
boot() {
    local log=$1 cache=$2
    shift 2
    "$workdir/syccl-serve" -addr "127.0.0.1:$PORT" -admin "127.0.0.1:$ADMIN_PORT" \
        -cache-dir "$cache" "$@" >"$log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
        sleep 0.1
    done
    curl -fsS "$BASE/healthz" >/dev/null || { echo "daemon never came up"; cat "$log"; exit 1; }
}

boot "$workdir/daemon.log" "$workdir/cache" -access-log "$workdir/access.log"

echo "== drive one synthesis =="
req_id=$(curl -fsS -D - -o "$workdir/resp.json" "$BASE/v1/synthesize" \
    -d '{"topology":"dgx4","collective":"allgather","size":"1M","include_schedule":true}' \
    | tr -d '\r' | awk 'tolower($1)=="x-syccl-request:"{print $2}')
[ -n "$req_id" ] || { echo "FAIL: no X-Syccl-Request header"; exit 1; }
echo "request id: $req_id"

echo "== drive one streaming synthesis (NDJSON) =="
curl -fsS -D "$workdir/stream.hdr" -o "$workdir/stream.ndjson" "$BASE/v1/synthesize" \
    -d '{"topology":"dgx4","collective":"allreduce","size":"1M","stream":true}'
grep -qi '^content-type: application/x-ndjson' "$workdir/stream.hdr" \
    || { echo "FAIL: stream response not NDJSON"; exit 1; }
grep -q '"event":"incumbent"' "$workdir/stream.ndjson" \
    || { echo "FAIL: stream carried no incumbent events"; exit 1; }
tail -n 1 "$workdir/stream.ndjson" | grep -q '"event":"final"' \
    || { echo "FAIL: stream not terminated by a final event"; exit 1; }
echo "ok"

echo "== drive one replan (degraded dgx4) =="
# A degrade delta, not a kill: every dgx4 GPU has exactly one NVLink, so
# any single-link kill would disconnect a GPU and be rejected.
curl -fsS -o "$workdir/replan.json" "$BASE/v1/replan" \
    -d '{"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":"slow:0-4*4"}'
grep -q '"replan":{"delta":"slow:0-4\*4"' "$workdir/replan.json" \
    || { echo "FAIL: replan response missing bookkeeping"; cat "$workdir/replan.json"; exit 1; }
# Infeasible deltas are structured 400s.
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/replan" \
    -d '{"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":"kill:0-4"}')
[ "$code" = "400" ] || { echo "FAIL: disconnecting delta returned $code, want 400"; exit 1; }
echo "ok"

echo "== scrape /metrics =="
curl -fsS "$BASE/metrics" > "$workdir/metrics.txt"

echo "-- required families --"
for fam in \
    syccl_requests_total \
    syccl_request_duration_seconds \
    syccl_solve_duration_seconds \
    syccl_queue_wait_seconds \
    syccl_inflight_requests \
    syccl_store_entries \
    syccl_flights_active \
    syccl_draining \
    syccl_process_uptime_seconds \
    syccl_go_goroutines \
    syccl_go_heap_alloc_bytes \
    syccl_go_gc_cycles_total \
    syccl_go_gc_pause_seconds_total \
    syccl_engine_plans_total \
    syccl_engine_cache_lookups_total \
    syccl_engine_cache_evictions_total \
    syccl_persist_loads_total \
    syccl_persist_stores_total \
    syccl_persist_corrupt_total \
    syccl_persist_snapshots_total \
    syccl_persist_entries \
    syccl_persist_bytes \
    syccl_prewarm_total \
    syccl_incumbents_total \
    syccl_time_to_first_incumbent_seconds \
    syccl_replan_total \
    syccl_replan_reuse_ratio
do
    grep -q "^# TYPE $fam " "$workdir/metrics.txt" || { echo "FAIL: family $fam missing"; exit 1; }
done
echo "all present"

echo "-- exposition well-formed --"
bad=$(grep -v '^#' "$workdir/metrics.txt" | grep -v '^$' \
    | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$' || true)
if [ -n "$bad" ]; then
    echo "FAIL: malformed exposition lines:"; echo "$bad"; exit 1
fi
echo "ok"

echo "-- no label drift on request counters --"
# Every label key used on syccl_requests_total must come from the
# contract set; a new key here means a dashboard-breaking change.
drift=$(grep '^syccl_requests_total{' "$workdir/metrics.txt" \
    | sed 's/^[^{]*{//; s/}.*//' | tr ',' '\n' | sed 's/=.*//' | sort -u \
    | grep -Ev '^(collective|topology|cache|outcome)$' || true)
if [ -n "$drift" ]; then
    echo "FAIL: unknown labels on syccl_requests_total: $drift"; exit 1
fi
grep -q '^syccl_requests_total{collective="allgather",topology="dgx4",cache="cold",outcome="ok"} 1$' "$workdir/metrics.txt" \
    || { echo "FAIL: cold request not counted"; exit 1; }
echo "ok"

echo "-- no label drift on persist counters --"
pdrift=$(grep -E '^syccl_persist_[a-z_]+\{' "$workdir/metrics.txt" \
    | sed 's/^[^{]*{//; s/}.*//' | tr ',' '\n' | sed 's/=.*//' | sort -u \
    | grep -Ev '^(result|kind)$' || true)
if [ -n "$pdrift" ]; then
    echo "FAIL: unknown labels on syccl_persist_*: $pdrift"; exit 1
fi
# The cold solve wrote its sub-schedules through to disk.
grep -q '^syccl_persist_stores_total{result="written"} [1-9]' "$workdir/metrics.txt" \
    || { echo "FAIL: persist write-through not counted"; exit 1; }
echo "ok"

echo "-- no label drift on incumbent counters --"
idrift=$(grep '^syccl_incumbents_total{' "$workdir/metrics.txt" \
    | sed 's/^[^{]*{//; s/}.*//' | tr ',' '\n' | sed 's/=.*//' | sort -u \
    | grep -Ev '^(source)$' || true)
if [ -n "$idrift" ]; then
    echo "FAIL: unknown labels on syccl_incumbents_total: $idrift"; exit 1
fi
# Both solves so far were leader flights, so incumbents were published
# and the first one was timed.
grep -Eq '^syccl_incumbents_total\{source="[a-z]+"\} [1-9]' "$workdir/metrics.txt" \
    || { echo "FAIL: no incumbents counted"; exit 1; }
grep -Eq '^syccl_time_to_first_incumbent_seconds_count [1-9]' "$workdir/metrics.txt" \
    || { echo "FAIL: time-to-first-incumbent never observed"; exit 1; }
echo "ok"

echo "-- no label drift on replan counters --"
rdrift=$(grep '^syccl_replan_total{' "$workdir/metrics.txt" \
    | sed 's/^[^{]*{//; s/}.*//' | tr ',' '\n' | sed 's/=.*//' | sort -u \
    | grep -Ev '^(result)$' || true)
if [ -n "$rdrift" ]; then
    echo "FAIL: unknown labels on syccl_replan_total: $rdrift"; exit 1
fi
# One successful replan was driven above; the rejected delta fails in
# DecodeRequest-style validation before the engine, so error stays 0.
grep -q '^syccl_replan_total{result="ok"} 1$' "$workdir/metrics.txt" \
    || { echo "FAIL: replan not counted as ok"; exit 1; }
grep -Eq '^syccl_replan_reuse_ratio_count [1-9]' "$workdir/metrics.txt" \
    || { echo "FAIL: replan reuse ratio never observed"; exit 1; }
echo "ok"

echo "== flight recorder =="
curl -fsS "$BASE/debug/requests/$req_id" > "$workdir/record.json"
grep -q '"serve.plan"' "$workdir/record.json" || { echo "FAIL: record has no span tree"; exit 1; }
curl -fsS "$BASE/debug/requests" > "$workdir/requests.json" || { echo "FAIL: /debug/requests"; exit 1; }
grep -q "$req_id" "$workdir/requests.json" || { echo "FAIL: request absent from listing"; exit 1; }
echo "ok"

echo "== admin listener (pprof + mirrored scrape) =="
curl -fsS "$ADMIN/debug/pprof/" >/dev/null || { echo "FAIL: pprof index"; exit 1; }
# Capture before grepping: `curl | grep -q` races curl's write against
# grep's early exit, and with pipefail the resulting EPIPE (curl 23)
# fails the pipeline even though the match succeeded.
curl -fsS "$ADMIN/metrics" > "$workdir/admin_metrics.txt" || { echo "FAIL: admin /metrics scrape"; exit 1; }
grep -q '^syccl_requests_total' "$workdir/admin_metrics.txt" || { echo "FAIL: admin /metrics"; exit 1; }
echo "ok"

echo "== access log =="
[ -s "$workdir/access.log" ] || { echo "FAIL: access log empty"; exit 1; }
grep -q "\"id\":\"$req_id\"" "$workdir/access.log" || { echo "FAIL: request id not logged"; exit 1; }
echo "ok"

echo "== warm reboot (SIGTERM, second daemon on same -cache-dir) =="
kill -TERM "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
[ -f "$workdir/cache/snapshots/schedule-store.snap" ] \
    || { echo "FAIL: drain wrote no schedule-store snapshot"; exit 1; }

boot "$workdir/daemon2.log" "$workdir/cache"

curl -fsS "$BASE/statsz" > "$workdir/statsz2.json"
grep -q '"restored":0' "$workdir/statsz2.json" \
    && { echo "FAIL: second boot restored nothing from the snapshot"; exit 1; }

curl -fsS -o "$workdir/resp2.json" "$BASE/v1/synthesize" \
    -d '{"topology":"dgx4","collective":"allgather","size":"1M","include_schedule":true}'
grep -q '"cached":true' "$workdir/resp2.json" \
    || { echo "FAIL: rebooted daemon did not serve from the restored store"; exit 1; }
# Bit-identical replay: the schedule payloads must match byte for byte.
sed 's/.*"schedule"://' "$workdir/resp.json"  > "$workdir/sched1.json"
sed 's/.*"schedule"://' "$workdir/resp2.json" > "$workdir/sched2.json"
cmp -s "$workdir/sched1.json" "$workdir/sched2.json" \
    || { echo "FAIL: restored schedule differs from the original"; exit 1; }

curl -fsS "$BASE/metrics" > "$workdir/metrics2.txt"
grep -q '^syccl_requests_total{collective="allgather",topology="dgx4",cache="store",outcome="ok"} 1$' "$workdir/metrics2.txt" \
    || { echo "FAIL: warm-boot hit not counted as cache=store"; exit 1; }
grep -q '^syccl_persist_snapshots_total{result="restored"} 1$' "$workdir/metrics2.txt" \
    || { echo "FAIL: snapshot restore not counted"; exit 1; }
# The store answered before the engine: zero plans on the new daemon.
grep -q '^syccl_engine_plans_total{outcome="ok"} 0$' "$workdir/metrics2.txt" \
    || { echo "FAIL: warm-boot replay still ran an engine plan"; exit 1; }
echo "ok"

kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

echo "== boot on an old-format -cache-dir (persist format v1) =="
# The old corpus must be discarded and re-solved, never served.
cp -R internal/serve/testdata/parent_cache "$workdir/v1cache"
boot "$workdir/daemon3.log" "$workdir/v1cache"
curl -fsS "$BASE/statsz" > "$workdir/statsz3.json"
grep -q '"restored":0' "$workdir/statsz3.json" \
    || { echo "FAIL: a v1 snapshot was restored"; cat "$workdir/statsz3.json"; exit 1; }
code=$(curl -s -o "$workdir/resp3.json" -w '%{http_code}' "$BASE/v1/synthesize" \
    -d '{"topology":"dgx4","collective":"allgather","size":"1M"}')
[ "$code" = "200" ] || { echo "FAIL: request over a v1 cache dir returned $code"; cat "$workdir/resp3.json"; exit 1; }
echo "ok"

kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
echo "metrics smoke passed."
