#!/usr/bin/env bash
# bench.sh — run the figure-regeneration and end-to-end benchmarks and
# emit a machine-readable BENCH_<date>_<shortsha>.json so successive
# commits accumulate a performance trajectory (two commits benchmarked
# on the same day no longer overwrite each other).
#
# Usage: scripts/bench.sh [output-dir] [benchtime]
#   output-dir  where BENCH_<date>_<shortsha>.json lands (default: repo root)
#   benchtime   go test -benchtime value (default: 100ms). The old 1x
#               default made every recorded number a single-iteration
#               sample — fine for the macro-scale figure generators
#               (still one iteration at 100ms) but statistically
#               meaningless for the sub-millisecond serving-path gates,
#               whose drift comparisons need the hundreds of iterations
#               a time budget gives them. Each benchmark's actual
#               iteration count is recorded in the JSON; treat any
#               entry with iterations == 1 as a point sample, not a
#               distribution.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-.}"
BENCHTIME="${2:-100ms}"
DATE="$(date -u +%Y-%m-%d)"
COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
GOMAXPROCS_USED="${GOMAXPROCS:-$(nproc)}"
mkdir -p "$OUT_DIR"
OUT="$OUT_DIR/BENCH_${DATE}_${COMMIT:0:7}.json"

# The Planner|Gateway|State patterns pick up the serving-stack gates:
# PlannerSelectCold/Warm, PlannerSelectRestoredCold (snapshot restore),
# PlannerConcurrentThroughput, PlannerPoolWarmAcrossDevices
# (multi-target warm path), GatewayThroughput, GatewayCoalescedBurst,
# GatewayCoalescedBurstStaggered (timed batching window),
# GatewayLaneIsolation (per-device lane p99s) and StateSave/StateRestore
# (snapshot codec bytes + ns). -benchmem adds B/op and allocs/op to
# every entry so allocation regressions (a copy creeping back onto the
# byte-cache hit path, a reflective codec) show in the drift log too.
RAW="$(go test -run '^$' -bench 'SelectEndToEnd|Planner|Gateway|State|Fig|Tab|Abl' \
  -benchtime="$BENCHTIME" -benchmem . | grep -E '^Benchmark')"

# Every layer benchmark under internal/ too (DecodeRequest, Profile,
# InferProfiledAdd, ...), each name prefixed by its package path
# ("internal/gateway.BenchmarkDecodeRequest/graph") so two packages'
# benchmarks of one name stay apart. Root benchmarks keep their bare
# names, which earlier BENCH files compare against.
MODULE="$(go list -m)"
LAYERS="$(go test -run '^$' -bench . -benchtime="$BENCHTIME" -benchmem ./internal/... |
  awk -v mod="$MODULE/" '/^pkg: /{pkg = substr($2, length(mod) + 1)} /^Benchmark/{$1 = pkg "." $1; print}')"
RAW="$RAW
$LAYERS"

{
  echo "{"
  echo "  \"date\": \"${DATE}\","
  echo "  \"host\": \"$(uname -srm)\","
  echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
  echo "  \"gomaxprocs\": ${GOMAXPROCS_USED},"
  echo "  \"commit\": \"${COMMIT}\","
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo "  \"benchtime\": \"${BENCHTIME}\","
  echo "  \"benchmarks\": ["
  # A bench line after the name and iteration count is value/unit token
  # pairs: "ns/op" always first, then any b.ReportMetric custom units,
  # then -benchmem's "B/op" and "allocs/op". Known units become
  # top-level fields; everything else lands under "metrics".
  echo "$RAW" | awk '{
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = 0; bytes = ""; allocs = ""; extra = ""
    for (i = 3; i + 1 <= NF; i += 2) {
      v = $i; u = $(i + 1)
      if (u == "ns/op") ns = v
      else if (u == "B/op") bytes = v
      else if (u == "allocs/op") allocs = v
      else extra = extra (extra == "" ? "" : ", ") "\"" u "\": " v
    }
    line = "{\"name\": \"" name "\", \"iterations\": " $2 ", \"ns_per_op\": " ns
    if (bytes != "") line = line ", \"bytes_per_op\": " bytes
    if (allocs != "") line = line ", \"allocs_per_op\": " allocs
    if (extra != "") line = line ", \"metrics\": {" extra "}"
    printf "%s    %s}", sep, line
    sep = ",\n"
  } END { print "" }'
  echo "  ],"
  TOTAL=$(echo "$RAW" | awk '{s += $3} END {print s}')
  echo "  \"total_ns\": ${TOTAL}"
  echo "}"
} > "$OUT"

echo "wrote $OUT"

# Compare against the most recently written other BENCH_*.json (by
# modification time, not name: names sort by date first, so two runs on
# one day would otherwise compare by commit hash) so drift shows up in
# the run log, not only in git archaeology. A missing prior file is an
# explicit warning — a compare step that silently passes when there is
# nothing to compare against would read as "no regressions".
PREV="$(ls -1t "$OUT_DIR"/BENCH_*.json 2>/dev/null | grep -vxF "$OUT" | head -1 || true)"
if [ -z "$PREV" ]; then
  echo "WARNING: no prior BENCH_*.json in $OUT_DIR to compare against — drift not checked" >&2
else
  echo "comparing against $PREV"
  python3 - "$PREV" "$OUT" <<'PY'
import json, sys
prev = {b["name"]: b for b in json.load(open(sys.argv[1]))["benchmarks"]}
curr = {b["name"]: b for b in json.load(open(sys.argv[2]))["benchmarks"]}
for name in sorted(set(prev) & set(curr)):
    p, c = prev[name]["ns_per_op"], curr[name]["ns_per_op"]
    if p <= 0:
        continue
    delta = (c - p) / p * 100
    flag = " <-- regression" if delta > 25 else ""
    print(f"  {name}: {p/1e6:.3f} -> {c/1e6:.3f} ms/op ({delta:+.1f}%){flag}")
only = sorted(set(prev) - set(curr))
if only:
    print("  dropped since previous run: " + ", ".join(only))
PY
fi
