#!/usr/bin/env bash
# rt_cli --audit-out keeps the whole run's planner history: a live run at
# time scale 6000 (one planner cycle per 10 ms wall) plans far more
# cycles than the live window of 64, and the audit JSONL must still hold
# exactly one record per planning cycle, numbered 1..N, plus a
# well-formed HTML report from the same run. Registered with CTest as
# `rt_cli_audit_smoke`.
#
# Usage: rt_cli_audit_smoke.sh <path-to-rt_cli>
set -euo pipefail

CLI="${1:?usage: rt_cli_audit_smoke.sh <path-to-rt_cli>}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT
AUDIT="${OUT_DIR}/audit.jsonl"
REPORT="${OUT_DIR}/report.html"

"${CLI}" --qps=300 --duration=1.5 --time-scale=6000 \
  --control-interval=60 --tpch-scale=0.05 \
  --audit-out="${AUDIT}" --report-html="${REPORT}" \
  >"${OUT_DIR}/stdout.txt"
cat "${OUT_DIR}/stdout.txt"

CYCLES="$(sed -n 's/.*planning cycles \([0-9][0-9]*\).*/\1/p' \
  "${OUT_DIR}/stdout.txt")"
if [ -z "${CYCLES}" ]; then
  echo "rt_cli_audit_smoke: no planning-cycle count printed" >&2
  exit 1
fi

python3 - "${AUDIT}" "${CYCLES}" "${REPORT}" <<'PYEOF'
import html.parser, json, sys

path, cycles, report = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if cycles <= 2 * 64:
    sys.exit(f"rt_cli_audit_smoke: only {cycles} planning cycles; the "
             "run must outlast the live window")
intervals = []
with open(path) as f:
    for line in f:
        record = json.loads(line)
        if record.get("type") == "slo_violation":
            continue
        intervals.append(record["interval"])
if intervals != list(range(1, cycles + 1)):
    sys.exit(f"rt_cli_audit_smoke: {len(intervals)} audit records for "
             f"{cycles} planning cycles (first {intervals[:3]}, "
             f"last {intervals[-3:]})")

class Checker(html.parser.HTMLParser):
    svgs = 0
    def handle_starttag(self, tag, attrs):
        if tag == "svg":
            Checker.svgs += 1

Checker().feed(open(report).read())
if Checker.svgs < 4:
    sys.exit(f"rt_cli_audit_smoke: report has {Checker.svgs} charts")
print(f"rt_cli_audit_smoke: {cycles} planning cycles, one audit record "
      f"each; report has {Checker.svgs} charts")
PYEOF
