#!/usr/bin/env bash
# smoke_gateway.sh — end-to-end smoke of the serving daemon: boot
# cmd/netserve, fire a small concurrent load that exercises the warm,
# coalesce and shed paths, assert /metrics and /debug/stats respond,
# SIGTERM and require a clean (exit 0) drain — then restart from the
# saved warm-state snapshot and require the first post-restart request
# to run on the warm path (cold counter stays 0) with a byte-identical
# body. A final crash leg kills the daemon with -9 mid-traffic,
# corrupts the primary snapshot, and requires the restart to recover
# from the autosaved .bak generation with a warm first request. An
# overload leg floods a tiny-capacity instance past its queue depth
# and asserts the load level rises to 1, 429s are the lane's own
# queue_full with backlog-honest Retry-After hints, resident answers
# keep serving, and the level returns to 0 before a clean drain. The README metric catalogue is
# linted against live scrapes both ways.
#
# Usage: scripts/smoke_gateway.sh [port]   (default 18080)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
BIN="$TMP/netserve"
trap 'kill -9 "${PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$BIN" ./cmd/netserve

# Config/bind errors must be non-zero prompt exits, not hangs.
if "$BIN" -addr "not-a-valid-address" >/dev/null 2>&1; then
  echo "FAIL: netserve exited 0 on an unbindable address" >&2
  exit 1
fi

STATE="$TMP/state.bin"
"$BIN" -addr "$ADDR" -seed 1 -state-file "$STATE" -slow-trace 1ms >"$TMP/netserve.log" 2>&1 &
PID=$!

for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: netserve died before becoming healthy" >&2
    cat "$TMP/netserve.log" >&2
    exit 1
  fi
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null
# Readiness is distinct from liveness: boot restore has completed by the
# time the listener is up, so /readyz must be 200 while serving.
curl -fsS "http://$ADDR/readyz" >/dev/null || {
  echo "FAIL: /readyz not ready on a serving daemon" >&2; exit 1; }

plan() { curl -s -o "$1" -w '%{http_code}' -X POST -d "$2" "http://$ADDR/v1/plan"; }
# canon prints a response body with its per-request trace_id stripped:
# every response carries a unique ID, so byte-identity claims are about
# the canonical rendering modulo that one field.
canon() { sed 's/,"trace_id":"[0-9a-f]\{16\}"//' "$1"; }
same() { [ "$(canon "$1")" = "$(canon "$2")" ]; }

# Cold request, then its repeat: a resident answer from the planner's
# staircase, on the handler goroutine.
[ "$(plan "$TMP/cold.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
[ "$(plan "$TMP/warm.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
same "$TMP/cold.json" "$TMP/warm.json" || {
  echo "FAIL: repeated identical request returned a different body" >&2; exit 1; }

# Concurrent identical burst: exercises the coalescing machinery
# under real sockets; bodies must stay byte-identical to the first.
pids=()
for i in $(seq 1 16); do
  plan "$TMP/burst.$i.json" '{"network":"ResNet-50","deadline_ms":0.9}' >"$TMP/burst.$i.code" &
  pids+=("$!")
done
for p in "${pids[@]}"; do wait "$p"; done
for i in $(seq 1 16); do
  [ "$(cat "$TMP/burst.$i.code")" = 200 ] || { echo "FAIL: burst request $i failed" >&2; exit 1; }
  same "$TMP/burst.$i.json" "$TMP/cold.json" || {
    echo "FAIL: burst body $i diverged" >&2; exit 1; }
done

# Device fleet: /v1/devices lists the registry with the default first,
# an explicit target plans on that device, and "auto" routes to a
# registered device whose explicit spelling returns identical bytes.
curl -fsS "http://$ADDR/v1/devices" >"$TMP/devices.json"
python3 - "$TMP/devices.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))["devices"]
assert len(d) >= 4, f"only {len(d)} devices registered"
assert d[0]["name"] == "sim-xavier" and d[0]["default"], d[0]
assert all(x["healthy"] for x in d), "a fresh fleet reports an unhealthy device"
names = {x["name"] for x in d}
assert {"sim-xavier", "sim-edge-cpu", "sim-server-gpu", "sim-int8-accel"} <= names, names
PY

[ "$(plan "$TMP/gpu.json" '{"network":"ResNet-50","deadline_ms":0.9,"target":"sim-server-gpu"}')" = 200 ]
grep -q '"device":"sim-server-gpu"' "$TMP/gpu.json"
same "$TMP/gpu.json" "$TMP/cold.json" && {
  echo "FAIL: two targets returned identical bodies" >&2; exit 1; }

[ "$(plan "$TMP/auto.json" '{"network":"ResNet-50","deadline_ms":0.9,"target":"auto"}')" = 200 ]
AUTO_DEV="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["device"])' "$TMP/auto.json")"
[ "$(plan "$TMP/auto_explicit.json" "{\"network\":\"ResNet-50\",\"deadline_ms\":0.9,\"target\":\"$AUTO_DEV\"}")" = 200 ]
same "$TMP/auto.json" "$TMP/auto_explicit.json" || {
  echo "FAIL: auto-routed body diverged from explicit target $AUTO_DEV" >&2; exit 1; }

# Unknown target is a structured 400.
[ "$(plan "$TMP/unknown_dev.json" '{"network":"ResNet-50","target":"sim-quantum"}')" = 400 ]
grep -q '"code":"unknown_device"' "$TMP/unknown_dev.json"

# Shed path: a budget below the warm p99 must be rejected up front.
# Budget shedding activates once the default device has served enough
# warm executions, which /v1/devices shows as a nonzero warm_p99_ms. A
# deadline on a step of a network's answer staircase that a request
# already accepted is a resident answer, not a planner pass, so the
# warm-up walks staircases down: each request asks just under the last
# answer's estimated_ms, a step no request has accepted yet, and an
# infeasible answer moves the walk to the next network. The budget
# probe is the walk's next step, so nothing resident can answer it.
shed_active() {
  curl -fsS "http://$ADDR/v1/devices" |
    python3 -c 'import json,sys; print(int(json.load(sys.stdin)["devices"][0]["warm_p99_ms"] > 0))'
}
WALK=("ResNet-50" "DenseNet-121" "InceptionV3")
WALK_TOP=1000000 # a deadline every unmodified network meets
NET=0
DL=$WALK_TOP
walk_body() {
  [ "$NET" -lt "${#WALK[@]}" ] || { echo "FAIL: the warm-up walk ran out of networks" >&2; exit 1; }
  printf '{"network":"%s","deadline_ms":%s%s}' "${WALK[$NET]}" "$DL" "${1:-}"
}
WARM=0
while [ "$(shed_active)" = 0 ]; do
  WARM=$((WARM + 1))
  [ "$WARM" -le 999 ] || { echo "FAIL: warm_p99_ms still 0 after 999 warm-up requests" >&2; exit 1; }
  BODY="$(walk_body)"
  [ "$(plan "$TMP/warmup.json" "$BODY")" = 200 ] || {
    echo "FAIL: shed warm-up request $WARM failed" >&2; cat "$TMP/warmup.json" >&2; exit 1; }
  NEXT="$(python3 -c 'import json,sys; r=json.load(open(sys.argv[1])); print(repr(r["estimated_ms"]*(1-1e-9)) if r["feasible"] else "")' "$TMP/warmup.json")"
  if [ -n "$NEXT" ]; then
    DL="$NEXT"
  else
    NET=$((NET + 1))
    DL=$WALK_TOP
  fi
done
BODY="$(walk_body ',"budget_ms":0.000001')"
[ "$(plan "$TMP/shed.json" "$BODY")" = 429 ]
grep -q '"code":"budget_too_small"' "$TMP/shed.json"

# Decode boundary: malformed JSON is a structured 400.
[ "$(plan "$TMP/bad.json" 'not json')" = 400 ]
grep -q '"code":"invalid_json"' "$TMP/bad.json"

# Observability surface.
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics"
for series in \
  netcut_gateway_requests_total \
  netcut_gateway_coalesced_total \
  netcut_gateway_shed_budget_total \
  netcut_gateway_queue_depth \
  netcut_planner_executions_total \
  netcut_planner_warm_ms_count \
  netcut_device_plans_hits_total \
  netcut_profiler_measurements_hits_total \
  netcut_trim_cuts_entries; do
  grep -q "^${series}" "$TMP/metrics" || {
    echo "FAIL: /metrics missing ${series}" >&2; exit 1; }
done
grep -Eq '^netcut_gateway_shed_budget_total [1-9]' "$TMP/metrics" || {
  echo "FAIL: shed counter did not move" >&2; exit 1; }

# Per-device series: executions, cache and latency series carry a
# device label, and the explicitly targeted GPU moved its own counter.
grep -Eq '^netcut_planner_executions_total\{device="sim-xavier"\} [1-9]' "$TMP/metrics" || {
  echo "FAIL: /metrics missing device-labeled executions for sim-xavier" >&2; exit 1; }
grep -Eq '^netcut_planner_executions_total\{device="sim-server-gpu"\} [1-9]' "$TMP/metrics" || {
  echo "FAIL: /metrics missing device-labeled executions for sim-server-gpu" >&2; exit 1; }
grep -q 'netcut_device_plans_entries{device="sim-server-gpu"}' "$TMP/metrics" || {
  echo "FAIL: /metrics missing device-labeled plan-cache series" >&2; exit 1; }
grep -q 'netcut_planner_warm_ms_count{device="sim-xavier"}' "$TMP/metrics" || {
  echo "FAIL: /metrics missing device-labeled warm latency series" >&2; exit 1; }

curl -fsS "http://$ADDR/debug/stats" >"$TMP/stats.json"
python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert "metrics" in d and "planner" in d' "$TMP/stats.json"

# Request tracing, end to end: a fresh request's response names its
# trace in the X-Netcut-Trace header and the body's trace_id field;
# fetching that ID from /debug/trace returns the per-stage timeline
# with queue-wait and execution as separate spans. The request is the
# shed probe's step without a budget: lane work, not a resident answer.
curl -s -D "$TMP/trace.hdr" -o "$TMP/trace.json" -X POST \
  -d "$(walk_body)" "http://$ADDR/v1/plan" >/dev/null
TRACE_ID="$(tr -d '\r' <"$TMP/trace.hdr" | awk -F': ' 'tolower($1)=="x-netcut-trace"{print $2}')"
echo "$TRACE_ID" | grep -Eq '^[0-9a-f]{16}$' || {
  echo "FAIL: X-Netcut-Trace header is not a 16-hex trace ID: '$TRACE_ID'" >&2; exit 1; }
grep -q "\"trace_id\":\"$TRACE_ID\"" "$TMP/trace.json" || {
  echo "FAIL: response body trace_id does not match the X-Netcut-Trace header" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/trace?id=$TRACE_ID" >"$TMP/traced.json"
python3 - "$TMP/traced.json" "$TRACE_ID" <<'PY'
import json, sys
traces = json.load(open(sys.argv[1]))["traces"]
assert len(traces) == 1, f"lookup by id returned {len(traces)} traces"
t = traces[0]
assert t["trace_id"] == sys.argv[2] and t["done"] and t["status"] == 200, t
spans = {s["stage"]: s for s in t["spans"]}
for stage in ("decode", "drain", "quarantine", "route", "health",
              "resident", "coalesce", "shed", "enqueue",
              "queue_wait", "exec", "deliver"):
    assert stage in spans, f"trace missing {stage} span: {sorted(spans)}"
assert spans["queue_wait"]["start_ms"] <= spans["exec"]["start_ms"], \
    "queue_wait does not precede exec"
assert t["dur_ms"] > 0
PY
# The in-flight dump responds (usually empty between requests).
curl -fsS "http://$ADDR/debug/requests" >"$TMP/inflight.json"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))["requests"]' "$TMP/inflight.json"
# The first (cold, multi-ms) request crossed the -slow-trace 1ms
# threshold, so the structured slow-request log fired.
grep -q '"msg":"slow request"\|msg="slow request"\|slow request' "$TMP/netserve.log" || {
  echo "FAIL: no slow-request log line despite -slow-trace 1ms and a cold plan" >&2
  cat "$TMP/netserve.log" >&2; exit 1; }

# Metrics lint: every netcut_ family the daemon exports must be
# documented in the README's Observability catalogue.
grep -oE '^netcut_[a-z0-9_]+' "$TMP/metrics" | sed -E 's/_(bucket|sum|count)$//' | sort -u >"$TMP/families"
while read -r fam; do
  grep -q "$fam" README.md || {
    echo "FAIL: metric family $fam is exported but not catalogued in README.md" >&2; exit 1; }
done <"$TMP/families"

# On-demand state save: the admin endpoint writes a well-formed binary
# snapshot — magic prefix, schema version byte 2, and at least one
# section frame past the 21-byte envelope header.
SAVE_CODE="$(curl -s -o "$TMP/save.json" -w '%{http_code}' -X POST "http://$ADDR/v1/state/save")"
[ "$SAVE_CODE" = 200 ] || { echo "FAIL: /v1/state/save returned $SAVE_CODE" >&2; exit 1; }
python3 - "$STATE" <<'PY'
import sys
raw = open(sys.argv[1], "rb").read()
assert raw[:12] == b"netcut-state", raw[:12]
assert raw[12] == 2, f"schema version byte {raw[12]}"
assert len(raw) > 21, f"envelope with no sections ({len(raw)} bytes)"
PY

# Graceful drain: SIGTERM must exit 0 (and persist the warm state).
kill -TERM "$PID"
if wait "$PID"; then
  echo "netserve drained cleanly"
else
  code=$?
  echo "FAIL: netserve exited $code after SIGTERM" >&2
  cat "$TMP/netserve.log" >&2
  exit 1
fi
PID=""
grep -q "saved warm state to $STATE" "$TMP/netserve.log" || {
  echo "FAIL: drain did not save the state file" >&2; cat "$TMP/netserve.log" >&2; exit 1; }

# Restart from the snapshot: the first request of the new process must
# run on the warm path — byte-identical body, warm counter moves, cold
# counter stays 0.
"$BIN" -addr "$ADDR" -seed 1 -state-file "$STATE" >"$TMP/netserve2.log" 2>&1 &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: restarted netserve died before becoming healthy" >&2
    cat "$TMP/netserve2.log" >&2
    exit 1
  fi
  sleep 0.2
done
grep -q "restored warm state from $STATE" "$TMP/netserve2.log" || {
  echo "FAIL: restart did not restore the state file" >&2; cat "$TMP/netserve2.log" >&2; exit 1; }
grep -Eq "restored warm state from $STATE in [0-9]+\.[0-9]ms" "$TMP/netserve2.log" || {
  echo "FAIL: restore log line does not report the restore duration" >&2
  grep "restored warm state" "$TMP/netserve2.log" >&2; exit 1; }

[ "$(plan "$TMP/restored.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
same "$TMP/restored.json" "$TMP/cold.json" || {
  echo "FAIL: post-restart body diverged from pre-restart body" >&2; exit 1; }

curl -fsS "http://$ADDR/metrics" >"$TMP/metrics2"
grep -Eq '^netcut_planner_warm_ms_count\{device="sim-xavier"\} [1-9]' "$TMP/metrics2" || {
  echo "FAIL: post-restart request did not land in the warm histogram" >&2; exit 1; }
grep -Eq '^netcut_planner_cold_ms_count\{device="sim-xavier"\} 0$' "$TMP/metrics2" || {
  echo "FAIL: post-restart request executed cold despite the restored state" >&2
  grep '^netcut_planner_cold_ms_count' "$TMP/metrics2" >&2; exit 1; }

kill -TERM "$PID"
if wait "$PID"; then
  echo "restarted netserve drained cleanly"
else
  code=$?
  echo "FAIL: restarted netserve exited $code after SIGTERM" >&2
  cat "$TMP/netserve2.log" >&2
  exit 1
fi
PID=""

# Crash leg: autosave + kill -9 + corrupted primary. The daemon
# autosaves on a short cadence; after two generations exist (primary and
# .bak) it is killed hard mid-life, the primary snapshot is stomped, and
# the restart must fall back to the .bak generation and serve its first
# request warm.
STATE2="$TMP/crash-state.bin"
"$BIN" -addr "$ADDR" -seed 1 -state-file "$STATE2" -autosave 300ms >"$TMP/netserve3.log" 2>&1 &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: autosaving netserve died before becoming healthy" >&2
    cat "$TMP/netserve3.log" >&2
    exit 1
  fi
  sleep 0.2
done

[ "$(plan "$TMP/crash.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
[ "$(plan "$TMP/crash2.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
same "$TMP/crash.json" "$TMP/crash2.json"

# Wait for a .bak generation written after the traffic above: .bak is
# the previous save, so only a .bak newer than this marker is guaranteed
# to contain the ResNet-50 measurements.
touch "$TMP/after-traffic"
sleep 0.01
for _ in $(seq 1 100); do
  [ -f "$STATE2.bak" ] && [ "$STATE2.bak" -nt "$TMP/after-traffic" ] && break
  sleep 0.2
done
[ -f "$STATE2.bak" ] && [ "$STATE2.bak" -nt "$TMP/after-traffic" ] || {
  echo "FAIL: autosave never produced a post-traffic .bak generation" >&2
  cat "$TMP/netserve3.log" >&2; exit 1; }

kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# Simulate the torn write a crash can leave: the primary is garbage, so
# recovery must come from the previous-good .bak.
printf 'torn-by-crash' >"$STATE2"

"$BIN" -addr "$ADDR" -seed 1 -state-file "$STATE2" >"$TMP/netserve4.log" 2>&1 &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: post-crash netserve died before becoming healthy" >&2
    cat "$TMP/netserve4.log" >&2
    exit 1
  fi
  sleep 0.2
done
grep -q "restored warm state from $STATE2.bak" "$TMP/netserve4.log" || {
  echo "FAIL: post-crash restart did not fall back to the .bak snapshot" >&2
  cat "$TMP/netserve4.log" >&2; exit 1; }

[ "$(plan "$TMP/recovered.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
same "$TMP/recovered.json" "$TMP/crash.json" || {
  echo "FAIL: post-crash body diverged from pre-crash body" >&2; exit 1; }
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics3"
grep -Eq '^netcut_planner_cold_ms_count\{device="sim-xavier"\} 0$' "$TMP/metrics3" || {
  echo "FAIL: post-crash first request executed cold despite the .bak restore" >&2
  grep '^netcut_planner_cold_ms_count' "$TMP/metrics3" >&2; exit 1; }

kill -TERM "$PID"
if wait "$PID"; then
  echo "post-crash netserve drained cleanly"
else
  code=$?
  echo "FAIL: post-crash netserve exited $code after SIGTERM" >&2
  cat "$TMP/netserve4.log" >&2
  exit 1
fi
PID=""

# Resident leg: a default-configuration daemon must answer the second
# of two identical requests and a third request at another deadline on
# the same staircase step (the first answer's own estimate) as resident
# answers — the counter reads 2 — with bodies byte-identical to the
# executed one.
"$BIN" -addr "$ADDR" -seed 1 >"$TMP/netserve5.log" 2>&1 &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: resident-leg netserve died before becoming healthy" >&2
    cat "$TMP/netserve5.log" >&2
    exit 1
  fi
  sleep 0.2
done

[ "$(plan "$TMP/bc1.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
[ "$(plan "$TMP/bc2.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
same "$TMP/bc1.json" "$TMP/bc2.json" || {
  echo "FAIL: repeated request's resident body diverged from the executed body" >&2; exit 1; }
STEP_DL="$(python3 -c 'import json,sys; print(repr(json.load(open(sys.argv[1]))["estimated_ms"]))' "$TMP/bc1.json")"
[ "$(plan "$TMP/bc3.json" "{\"network\":\"ResNet-50\",\"deadline_ms\":$STEP_DL}")" = 200 ]
same "$TMP/bc1.json" "$TMP/bc3.json" || {
  echo "FAIL: step-deadline resident body diverged from the executed body" >&2; exit 1; }
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics4"
grep -Eq '^netcut_gateway_resident_total\{device="sim-xavier"\} 2$' "$TMP/metrics4" || {
  echo "FAIL: the repeat and the step-deadline request were not both resident answers" >&2
  grep '^netcut_gateway_resident' "$TMP/metrics4" >&2; exit 1; }

# Reverse metrics lint: every family a README catalogue row lists must
# be exported by this default-configuration daemon, so a deleted
# family cannot leave a stale catalogue row behind.
grep -oE '^\| `netcut_[a-z0-9_]+' README.md | sed -E 's/^\| `//' | sort -u >"$TMP/catalogued"
while read -r fam; do
  grep -Eq "^${fam}(_bucket|_sum|_count)?[{ ]" "$TMP/metrics4" || {
    echo "FAIL: metric family $fam is catalogued in README.md but not exported" >&2; exit 1; }
done <"$TMP/catalogued"

kill -TERM "$PID"
if wait "$PID"; then
  echo "resident-leg netserve drained cleanly"
else
  code=$?
  echo "FAIL: resident-leg netserve exited $code after SIGTERM" >&2
  cat "$TMP/netserve5.log" >&2
  exit 1
fi
PID=""

# Overload leg: a tiny-capacity daemon (one pass permit, queue depth
# 4) is flooded by 24 concurrent posters, each posting its own
# never-seen graphs. Every such post is a cold planning pass (profile,
# measure, cut) that costs milliseconds, against ~20us for a warm one,
# so the lone permit's passes stay slower than the inflow and the
# 4-slot queue sits full for the /metrics polls below to observe
# whatever the host's speed.
# The bodies are generated once, before the flood, so the posters only
# spawn curl. The load level must rise to 1, rejections must be the
# lane's structured 429 queue_full carrying a backlog-honest
# Retry-After, resident answers must keep serving through the overload,
# and the level must return to 0 once the flood stops — before a clean
# SIGTERM drain. (The level follows the backlog: the queue drains
# between waves and the level falls with it — the poll below only
# needs to observe one elevated sample.)
OV_POSTERS=24
OV_BODIES=40 # per poster
mkdir -p "$TMP/cold"
OV_PROBES=50 # never-seen bodies for the shed probe below
go run ./scripts/coldbodies -n $((OV_POSTERS * OV_BODIES + OV_PROBES)) -out "$TMP/cold"
"$BIN" -addr "$ADDR" -seed 1 -devices sim-xavier -queue 4 -workers 1 >"$TMP/netserve6.log" 2>&1 &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: overload netserve died before becoming healthy" >&2
    cat "$TMP/netserve6.log" >&2
    exit 1
  fi
  sleep 0.2
done

# One identity's staircase step accepted before the storm.
[ "$(plan "$TMP/ov_hit.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]

# Sustained flood: poster w cycles through its own bodies w, w+24,
# w+48, ... (a body shed with a 429 is still cold when it comes round
# again) until told to stop.
rm -f "$TMP/ov_stop"
ovpids=()
for w in $(seq 0 $((OV_POSTERS - 1))); do
  (
    i=0
    while [ ! -f "$TMP/ov_stop" ] && [ "$i" -lt 500 ]; do
      curl -s -o /dev/null -w '%{http_code}\n' -X POST \
        --data-binary "@$TMP/cold/$((i % OV_BODIES * OV_POSTERS + w)).json" \
        "http://$ADDR/v1/plan" >>"$TMP/ov_codes.$w" 2>/dev/null || true
      i=$((i + 1))
    done
  ) &
  ovpids+=("$!")
done

# The load level, read from the lane backlog at each scrape, must reach
# brownout (1) under the flood.
LEVEL_SEEN=0
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/metrics" 2>/dev/null | grep -Eq '^netcut_gateway_load_level 1$'; then
    LEVEL_SEEN=1
    break
  fi
  sleep 0.1
done
[ "$LEVEL_SEEN" = 1 ] || {
  echo "FAIL: load level never rose under the flood" >&2
  touch "$TMP/ov_stop"; cat "$TMP/netserve6.log" >&2; exit 1; }

# A resident answer keeps serving through the overload.
[ "$(plan "$TMP/ov_hit2.json" '{"network":"ResNet-50","deadline_ms":0.9}')" = 200 ]
same "$TMP/ov_hit.json" "$TMP/ov_hit2.json" || {
  echo "FAIL: resident answer body diverged under overload" >&2; exit 1; }

# Probe the shed path directly with never-seen graphs (lane work: a
# resident answer would be served through the overload): retry until a rejection lands (the queue empties between
# waves), then require the lane's structured 429 queue_full with a
# backlog-honest Retry-After header and hint.
SHED_OK=0
for i in $(seq 1 $OV_PROBES); do
  CODE="$(curl -s -D "$TMP/ov_shed.hdr" -o "$TMP/ov_shed.json" -w '%{http_code}' -X POST \
    --data-binary "@$TMP/cold/$((OV_POSTERS * OV_BODIES + i - 1)).json" "http://$ADDR/v1/plan")"
  if [ "$CODE" = 429 ]; then
    grep -q '"code":"queue_full"' "$TMP/ov_shed.json" || {
      echo "FAIL: overload 429 carried unexpected code" >&2; cat "$TMP/ov_shed.json" >&2; exit 1; }
    grep -Eq '"retry_after_ms":[0-9.]+' "$TMP/ov_shed.json" || {
      echo "FAIL: overload 429 body carries no retry_after_ms hint" >&2; cat "$TMP/ov_shed.json" >&2; exit 1; }
    tr -d '\r' <"$TMP/ov_shed.hdr" | grep -iq '^retry-after: [0-9]' || {
      echo "FAIL: overload 429 missing Retry-After header" >&2; cat "$TMP/ov_shed.hdr" >&2; exit 1; }
    SHED_OK=1
    break
  fi
done
[ "$SHED_OK" = 1 ] || { echo "FAIL: flood never produced a 429" >&2; touch "$TMP/ov_stop"; exit 1; }

# Flood off: the level must return to 0 (the ladder has no hysteresis).
touch "$TMP/ov_stop"
for p in "${ovpids[@]}"; do wait "$p" 2>/dev/null || true; done
LEVEL_ZERO=0
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/metrics" 2>/dev/null | grep -Eq '^netcut_gateway_load_level 0'; then
    LEVEL_ZERO=1
    break
  fi
  sleep 0.1
done
[ "$LEVEL_ZERO" = 1 ] || {
  echo "FAIL: load level did not return to 0 after the flood stopped" >&2
  curl -fsS "http://$ADDR/metrics" | grep '^netcut_gateway_load' >&2 || true
  exit 1; }

kill -TERM "$PID"
if wait "$PID"; then
  echo "overload netserve drained cleanly"
else
  code=$?
  echo "FAIL: overload netserve exited $code after SIGTERM" >&2
  cat "$TMP/netserve6.log" >&2
  exit 1
fi
PID=""

echo "gateway smoke OK"
