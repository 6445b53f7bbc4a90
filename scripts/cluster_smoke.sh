#!/usr/bin/env bash
# Multi-process cluster smoke test: a coordinator and three workers as real
# separate processes on loopback. One worker is killed mid-run; the
# coordinator must degrade to a 206 whose completeness names the loss, whose
# flight-recorder capture records the victim as failed alongside a stitched
# cross-process trace with worker-attributed spans from the survivors, and
# flag the worker on /readyz; after the worker rejoins, the same query must
# answer 200 with a digest equal to a single-node server's. This is the
# process-level twin of internal/server/cluster_test.go — same contract, no
# shared memory.
#
# Requires: go, curl, python3. Exits non-zero on the first broken assertion.
set -euo pipefail

BASE_PORT="${CLUSTER_SMOKE_PORT:-19180}"
LOG_SPEC="clinic=clinic:64:7"
QUERY='{"log":"clinic","query":"GetRefer -> SeeDoctor","partial":true}'

COORD_PORT=$BASE_PORT
W1_PORT=$((BASE_PORT + 1))
W2_PORT=$((BASE_PORT + 2))
W3_PORT=$((BASE_PORT + 3))
SINGLE_PORT=$((BASE_PORT + 4))

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "cluster-smoke: $*"; }
die() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }

say "building wlq-serve"
go build -o "$workdir/wlq-serve" ./cmd/wlq-serve

start_worker() { # port -> pid
  "$workdir/wlq-serve" -worker -addr "127.0.0.1:$1" -log "$LOG_SPEC" \
    -no-request-log >"$workdir/worker-$1.log" 2>&1 &
  echo $!
}

wait_ready() { # url
  for _ in $(seq 1 50); do
    if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  die "$1 never became ready"
}

# digest extracts the answer-defining fields of a 200 body.
digest() { # file
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
print(json.dumps({"count": doc["count"], "incidents": doc.get("incidents")}, sort_keys=True))
' "$1"
}

post() { # url outfile [mode] -> status code on stdout
  curl -sS -o "$2" -w '%{http_code}' -H 'Content-Type: application/json' \
    -d "${QUERY%\}},\"mode\":\"${3:-incidents}\"}" "$1/v1/query"
}

# summary extracts what a count or instances answer says.
summary() { # file
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
print(json.dumps({k: doc.get(k) for k in ("mode", "count", "exists", "instances", "incidents")}, sort_keys=True))
' "$1"
}

say "starting 3 workers + coordinator + single-node reference"
pids+=("$(start_worker "$W1_PORT")")
pids+=("$(start_worker "$W2_PORT")")
pids+=("$(start_worker "$W3_PORT")")
"$workdir/wlq-serve" -addr "127.0.0.1:$COORD_PORT" -log "$LOG_SPEC" \
  -cluster-workers "http://127.0.0.1:$W1_PORT,http://127.0.0.1:$W2_PORT,http://127.0.0.1:$W3_PORT" \
  -worker-attempts 1 -breaker-threshold 1 -breaker-cooldown 2s \
  -probe-interval 500ms -cache -1 -no-request-log \
  >"$workdir/coordinator.log" 2>&1 &
pids+=($!)
"$workdir/wlq-serve" -addr "127.0.0.1:$SINGLE_PORT" -log "$LOG_SPEC" \
  -no-request-log >"$workdir/single.log" 2>&1 &
pids+=($!)

for port in "$W1_PORT" "$W2_PORT" "$W3_PORT" "$COORD_PORT" "$SINGLE_PORT"; do
  wait_ready "http://127.0.0.1:$port"
done
grep -q "coordinating 3 workers (range placement)" "$workdir/coordinator.log" \
  || die "coordinator startup line does not report the fleet and its placement: $(cat "$workdir/coordinator.log")"

say "healthy fleet: answer must match the single-node reference"
code=$(post "http://127.0.0.1:$SINGLE_PORT" "$workdir/single.json")
[ "$code" = 200 ] || die "single-node query returned $code"
code=$(post "http://127.0.0.1:$COORD_PORT" "$workdir/healthy.json")
[ "$code" = 200 ] || die "healthy cluster query returned $code (want 200): $(cat "$workdir/healthy.json")"
[ "$(digest "$workdir/single.json")" = "$(digest "$workdir/healthy.json")" ] \
  || die "healthy cluster answer diverges from single-node"

# The mode travels to the workers: each answers a count with one number and an
# instances request with its wids, and the coordinator adds and concatenates.
for mode in count instances; do
  code=$(post "http://127.0.0.1:$SINGLE_PORT" "$workdir/single-$mode.json" "$mode")
  [ "$code" = 200 ] || die "single-node $mode query returned $code"
  code=$(post "http://127.0.0.1:$COORD_PORT" "$workdir/healthy-$mode.json" "$mode")
  [ "$code" = 200 ] || die "healthy cluster $mode query returned $code: $(cat "$workdir/healthy-$mode.json")"
  [ "$(summary "$workdir/single-$mode.json")" = "$(summary "$workdir/healthy-$mode.json")" ] \
    || die "cluster $mode answer $(summary "$workdir/healthy-$mode.json") diverges from single-node $(summary "$workdir/single-$mode.json")"
done
say "count and instances answers match the single-node reference"

say "killing worker 2 (port $W2_PORT)"
kill -9 "${pids[1]}"

code=$(post "http://127.0.0.1:$COORD_PORT" "$workdir/degraded.json")
[ "$code" = 206 ] || die "degraded query returned $code (want 206): $(cat "$workdir/degraded.json")"
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
comp = doc.get("completeness") or sys.exit("206 without completeness")
assert doc.get("partial") is True, "206 not marked partial"
assert comp["complete"] is False, "degraded completeness claims complete"
fails = comp.get("failures") or sys.exit("no failures named")
victim = sys.argv[2]
assert any(f.get("worker") == victim for f in fails), f"victim {victim} not named in {fails}"
assert comp["excluded_wids"] > 0, "no wids reported excluded"
# Range placement: a lost worker is one exact closed interval, no run list.
for f in fails:
    assert f["wid_min"] <= f["wid_max"], f"inverted interval in {f}"
    assert "wid_ranges" not in f, f"failure still carries wid_ranges: {f}"
covered, excluded = sum(f["wids"] for f in fails), comp["excluded_wids"]
assert covered == excluded, f"failures cover {covered} wids, excluded_wids says {excluded}"
' "$workdir/degraded.json" "http://127.0.0.1:$W2_PORT"
say "degraded 206 names the lost worker and its exact wid interval"

say "flight capture of the kill must carry stitched spans from the survivors"
curl -fsS "http://127.0.0.1:$COORD_PORT/v1/queries?status=partial&worker=http://127.0.0.1:$W2_PORT" \
  >"$workdir/flights.json"
cap_id=$(python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
qs = doc.get("queries") or sys.exit("no partial capture lists the lost worker")
print(qs[0]["id"])
' "$workdir/flights.json")
curl -fsS "http://127.0.0.1:$COORD_PORT/v1/queries/$cap_id" >"$workdir/capture.json"
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
victim = sys.argv[2]
ws = doc.get("workers") or sys.exit("capture has no workers summary")
per = ws.get("per_worker") or sys.exit("capture has no per-worker detail")
lost = [d for d in per if d["worker"] == victim]
assert lost and lost[0]["status"] == "failed", f"victim not recorded as failed: {per}"
tid = ws.get("trace_id") or ""
assert len(tid) == 32, f"no propagated trace id: {tid!r}"
trace = doc.get("trace") or sys.exit("capture has no stitched trace")
assert trace.get("trace_id") == ws["trace_id"], "capture trace and summary disagree on the trace id"

def walk(span):
    yield span
    for c in span.get("children") or []:
        yield from walk(c)

spans = list(walk(trace["spans"]))
assert all(s.get("worker") for s in spans), "stitched span without worker attribution"
grafted = [s for s in spans if s["name"] == "worker" and s.get("worker", "").startswith("http://")]
assert grafted, "no surviving worker subtree grafted into the trace"
assert all(s["worker"] != victim for s in grafted), "the dead worker contributed a subtree"
' "$workdir/capture.json" "http://127.0.0.1:$W2_PORT"
say "capture carries the victim as failed and worker-attributed spans from the survivors"

# After the capture check, which reads the latest partial capture: this second
# degraded query finds the breaker open and the victim skipped, a 206 all the same.
code=$(post "http://127.0.0.1:$COORD_PORT" "$workdir/degraded-count.json" count)
[ "$code" = 206 ] || die "degraded count query returned $code (want 206): $(cat "$workdir/degraded-count.json")"
python3 -c '
import json, sys
full, part, incidents = (json.load(open(f)) for f in sys.argv[1:4])
n = part["count"]
assert n <= full["count"], f"degraded count {n} exceeds the full {full}"
assert n == incidents["count"], f"degraded count {n} differs from the degraded incidents answer"
assert "incidents" not in part and part.get("partial") is True, "degraded count is not a partial summary"
' "$workdir/single-count.json" "$workdir/degraded-count.json" "$workdir/degraded.json"
say "degraded count is the surviving workers' sum, no more than the full count"

say "waiting for /readyz to report the loss"
for i in $(seq 1 30); do
  curl -fsS "http://127.0.0.1:$COORD_PORT/readyz" >"$workdir/readyz.json"
  if python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
sys.exit(0 if doc.get("status") == "degraded" and doc.get("workers_lost") else 1)
' "$workdir/readyz.json"; then break; fi
  [ "$i" = 30 ] && die "readyz never degraded: $(cat "$workdir/readyz.json")"
  sleep 0.3
done
say "readyz degraded with workers_lost"

curl -fsS "http://127.0.0.1:$COORD_PORT/metrics?format=prometheus" >"$workdir/metrics.prom"
grep -q "wlq_cluster_worker_breaker_open{worker=\"http://127.0.0.1:$W2_PORT\"} 1" "$workdir/metrics.prom" \
  || die "breaker-open gauge for the victim missing from the prometheus exposition"
say "victim breaker visible as open in /metrics"

say "rejoining worker 2 on the same port"
pids[1]=$(start_worker "$W2_PORT")
wait_ready "http://127.0.0.1:$W2_PORT"

# The breaker needs its 2s cooldown before it half-opens; poll until the
# fleet answers complete again.
for i in $(seq 1 30); do
  code=$(post "http://127.0.0.1:$COORD_PORT" "$workdir/healed.json")
  if [ "$code" = 200 ]; then break; fi
  [ "$i" = 30 ] && die "fleet never healed: last status $code: $(cat "$workdir/healed.json")"
  sleep 0.5
done
[ "$(digest "$workdir/single.json")" = "$(digest "$workdir/healed.json")" ] \
  || die "post-rejoin answer diverges from single-node"
say "post-rejoin 200 is digest-equal to single-node"

say "PASS"
