#!/usr/bin/env bash
# Smoke test for experiment_cli's observability exports: runs a short
# experiment with --trace-out / --metrics-out / --audit-out /
# --timeseries-csv and validates that each artifact is well-formed and
# that the audit JSONL and the time-series CSV print the same
# per-interval values. Registered with CTest as `experiment_cli_smoke`.
#
# Usage: smoke_experiment_cli.sh <path-to-experiment_cli>
set -eu

CLI="${1:?usage: smoke_experiment_cli.sh <path-to-experiment_cli>}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

TRACE="${OUT_DIR}/trace.json"
METRICS="${OUT_DIR}/metrics.prom"
AUDIT="${OUT_DIR}/audit.jsonl"
CSV="${OUT_DIR}/timeseries.csv"

"${CLI}" --controller=query-scheduler --seed=7 --period-seconds=120 \
  --control-interval=60 \
  --trace-out="${TRACE}" --metrics-out="${METRICS}" \
  --audit-out="${AUDIT}" --timeseries-csv="${CSV}" >/dev/null

for artifact in "${TRACE}" "${METRICS}" "${AUDIT}" "${CSV}"; do
  if [ ! -s "${artifact}" ]; then
    echo "smoke: missing or empty artifact ${artifact}" >&2
    exit 1
  fi
done

# --- Chrome trace JSON: parse it (python3 when available) and check the
# trace_event scaffolding either way.
if command -v python3 >/dev/null 2>&1; then
  python3 - "${TRACE}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "no trace events"
slices = [e for e in events if e.get("ph") == "X"]
assert slices, "no complete ('X') slices"
tids = {e["tid"] for e in slices}
assert len(tids) >= 2, f"expected one track per class, got tids={tids}"
names = {e["name"] for e in slices}
assert "exec" in names, f"missing exec slices, got {names}"
threads = {e["args"]["name"] for e in events
           if e.get("ph") == "M" and e.get("name") == "thread_name"}
assert any("OLAP" in t for t in threads), threads
assert any("OLTP" in t for t in threads), threads
print(f"trace ok: {len(slices)} slices on {len(tids)} tracks")
EOF
else
  grep -q '"traceEvents"' "${TRACE}"
  grep -q '"exec"' "${TRACE}"
fi

# --- Prometheus text: typed families covering dispatcher, engine and SLO
# metrics.
grep -q '^# TYPE qsched_dispatcher_queue_depth gauge' "${METRICS}"
grep -q '^# TYPE qsched_engine_cpu_utilization gauge' "${METRICS}"
grep -q '^# TYPE qsched_slo_goal_ratio gauge' "${METRICS}"
grep -q '^qsched_qp_queue_wait_seconds{class="1",quantile="0.5"}' \
  "${METRICS}"
grep -q '^qsched_engine_queries_completed_total ' "${METRICS}"

# --- Audit JSONL: one JSON object per line — planner records first,
# then the SLO violation events tagged "type":"slo_violation".
lines=$(wc -l < "${AUDIT}")
if [ "${lines}" -lt 2 ]; then
  echo "smoke: expected >=2 audit records, got ${lines}" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "${AUDIT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = [json.loads(line) for line in f]
records = [r for r in rows if r.get("type") != "slo_violation"]
events = [r for r in rows if r.get("type") == "slo_violation"]
for i, rec in enumerate(records):
    assert rec["interval"] == i + 1, (rec["interval"], i + 1)
    assert rec["classes"], "record with no classes"
    total = sum(c["enforced_limit"] for c in rec["classes"])
    assert abs(total - rec["system_cost_limit"]) < 1.0, total
for ev in events:
    assert ev["start_interval"] <= ev["end_interval"], ev
    assert ev["intervals"] >= 1, ev
    assert ev["worst_ratio"] < 1.0, ev
print(f"audit ok: {len(records)} records, {len(events)} violation events")
EOF
  # Both exports render the one per-interval record: one CSV line per
  # (audit record, class), with the same printed values.
  python3 - "${AUDIT}" "${CSV}" <<'EOF'
import csv, json, sys
keep = lambda text: text  # compare numbers as printed, not as parsed
with open(sys.argv[1]) as f:
    rows = [json.loads(line, parse_float=keep, parse_int=keep) for line in f]
records = [r for r in rows if r.get("type") != "slo_violation"]
with open(sys.argv[2]) as f:
    lines = list(csv.DictReader(f))
expected = [(rec, cls) for rec in records for cls in rec["classes"]]
assert len(lines) == len(expected), (len(lines), len(expected))
pairs = {"cost_limit": "enforced_limit", "measured": "measured_smoothed",
         "admitted_cost": "running_cost", "goal_ratio": "goal_ratio"}
for line, (rec, cls) in zip(lines, expected):
    assert line["interval"] == rec["interval"], (line, rec["interval"])
    assert line["class_id"] == cls["class_id"], (line, cls)
    for column, key in pairs.items():
        assert line[column] == cls[key], (rec["interval"], column,
                                          line[column], cls[key])
print(f"csv ok: {len(lines)} lines match the audit records")
EOF
else
  head -1 "${AUDIT}" | grep -q '"interval":1'
  head -1 "${AUDIT}" | grep -q '"enforced_limit"'
  head -1 "${CSV}" | grep -q '^interval,sim_time,class_id'
fi

echo "smoke: all observability artifacts well-formed"
