#!/usr/bin/env bash
# bench.sh — run the figure-regeneration and end-to-end benchmarks and
# emit a machine-readable BENCH_<date>_<shortsha>.json so successive
# commits accumulate a performance trajectory (two commits benchmarked
# on the same day no longer overwrite each other).
#
# Usage: scripts/bench.sh [output-dir] [benchtime] [count]
#   output-dir  where BENCH_<date>_<shortsha>.json lands (default: repo root)
#   benchtime   go test -benchtime value (default: 100ms), so the
#               sub-millisecond serving-path gates get the hundreds of
#               iterations a time budget gives them. Each benchmark's
#               median iteration count is recorded in the JSON; treat
#               an entry with iterations == 1 as point samples.
#   count       go test -count value (default: 5): every benchmark is
#               sampled this many times, and the JSON records the
#               median, min and max of each figure.
#
# A benchmark is flagged as a regression only when its new median
# ns/op lies above the previous run's max: run-to-run spread on a
# shared host is easily 25%, so a flat threshold flags noise.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-.}"
BENCHTIME="${2:-100ms}"
COUNT="${3:-5}"
DATE="$(date -u +%Y-%m-%d)"
COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
GOMAXPROCS_USED="${GOMAXPROCS:-$(nproc)}"
mkdir -p "$OUT_DIR"
OUT="$OUT_DIR/BENCH_${DATE}_${COMMIT:0:7}.json"

# The Planner|Gateway|State patterns pick up the serving-stack gates:
# PlannerSelectCold/Warm, PlannerSelectRestoredCold (snapshot restore),
# PlannerConcurrentThroughput, PlannerPoolWarmAcrossDevices
# (multi-target warm path), GatewayThroughput, GatewayCoalescedBurst,
# GatewayCoalescedBurstStaggered (staggered arrivals, default config),
# GatewayLaneIsolation (per-device lane p99s), GatewayBoot (NewGateway
# plus MarkReady) and StateSave/StateRestore (snapshot codec bytes +
# ns). -benchmem adds B/op and allocs/op to every entry so allocation
# regressions (a copy creeping back onto the resident answer path, a
# reflective codec, a zoo build on boot) show in the drift log too.
RAW="$(go test -run '^$' -bench 'SelectEndToEnd|Planner|Gateway|State|Fig|Tab|Abl' \
  -benchtime="$BENCHTIME" -count="$COUNT" -benchmem . | grep -E '^Benchmark')"

# Every layer benchmark under internal/ too (DecodeRequest, Profile,
# InferProfiledAdd, ...), each name prefixed by its package path
# ("internal/gateway.BenchmarkDecodeRequest/graph") so two packages'
# benchmarks of one name stay apart. Root benchmarks keep their bare
# names, which earlier BENCH files compare against.
MODULE="$(go list -m)"
LAYERS="$(go test -run '^$' -bench . -benchtime="$BENCHTIME" -count="$COUNT" -benchmem ./internal/... |
  awk -v mod="$MODULE/" '/^pkg: /{pkg = substr($2, length(mod) + 1)} /^Benchmark/{$1 = pkg "." $1; print}')"
RAW="$RAW
$LAYERS"

# A bench line after the name and iteration count is value/unit token
# pairs: "ns/op" always first, then any b.ReportMetric custom units,
# then -benchmem's "B/op" and "allocs/op". Samples of one name are
# folded into medians (ns/op also keeps its min and max); known units
# become top-level fields, everything else lands under "metrics".
echo "$RAW" | python3 -c '
import json, re, statistics, sys
head = dict(zip(sys.argv[1::2], sys.argv[2::2]))
samples = {}
for line in sys.stdin:
    f = line.split()
    if len(f) < 4:
        continue
    name = re.sub(r"-[0-9]+$", "", f[0])
    s = samples.setdefault(name, {"iterations": []})
    s["iterations"].append(float(f[1]))
    for v, u in zip(f[2::2], f[3::2]):
        s.setdefault(u, []).append(float(v))
def num(x):
    return int(x) if x == int(x) else round(x, 4)
out = []
for name, s in samples.items():
    ns = s.pop("ns/op")
    b = {"name": name, "samples": len(ns), "iterations": num(statistics.median(s.pop("iterations"))),
         "ns_per_op": num(statistics.median(ns)), "ns_per_op_min": num(min(ns)), "ns_per_op_max": num(max(ns))}
    for unit, key in (("B/op", "bytes_per_op"), ("allocs/op", "allocs_per_op")):
        if unit in s:
            b[key] = num(statistics.median(s.pop(unit)))
    if s:
        b["metrics"] = {u: num(statistics.median(v)) for u, v in s.items()}
    out.append(b)
head["cpus"], head["gomaxprocs"], head["count"] = (int(head[k]) for k in ("cpus", "gomaxprocs", "count"))
# One benchmark per line keeps BENCH files diffable.
print("{")
for k, v in head.items():
    print(f"  {json.dumps(k)}: {json.dumps(v)},")
print("  \"benchmarks\": [")
print(",\n".join("    " + json.dumps(b) for b in out))
print("  ],")
total = num(sum(b["ns_per_op"] for b in out))
print(f"  \"total_ns\": {total}")
print("}")
' date "$DATE" host "$(uname -srm)" cpus "$(getconf _NPROCESSORS_ONLN)" \
  gomaxprocs "$GOMAXPROCS_USED" commit "$COMMIT" go "$(go env GOVERSION)" \
  benchtime "$BENCHTIME" count "$COUNT" > "$OUT"

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
    p, c = prev[name], curr[name]
    # Files written before -count sampling hold one sample: its value
    # is both median and max.
    pmax = p.get("ns_per_op_max", p["ns_per_op"])
    if p["ns_per_op"] <= 0:
        continue
    delta = (c["ns_per_op"] - p["ns_per_op"]) / p["ns_per_op"] * 100
    flag = " <-- regression (median above previous max)" if c["ns_per_op"] > pmax else ""
    print(f"  {name}: {p['ns_per_op']/1e6:.3f} -> {c['ns_per_op']/1e6:.3f} ms/op "
          f"[{c.get('ns_per_op_min', c['ns_per_op'])/1e6:.3f}, {c.get('ns_per_op_max', c['ns_per_op'])/1e6:.3f}] ({delta:+.1f}%){flag}")
only = sorted(set(prev) - set(curr))
if only:
    print("  dropped since previous run: " + ", ".join(only))
PY
fi
