#!/usr/bin/env bash
# End-to-end smoke of the live observability plane: starts net_cli
# --mode=serve with the embedded HTTP server (--http-port=0), drives it
# with --mode=netload at >= 1000 submissions/s over loopback, and while
# the load is running scrapes GET /metrics, /varz, /healthz and
# /statusz. Checks:
#   - /metrics is valid Prometheus text exposition (python3 checker),
#     carries qsched_stage_seconds for >= 3 distinct stages, and the
#     process's resident and peak resident bytes, both > 0;
#   - /healthz answers 200 "accepting" while intake is open;
#   - /statusz is a self-contained HTML page with the latency-breakdown
#     section;
#   - the final /varz scrape agrees with the load generator's exit
#     accounting (accepted / completed conservation across the two
#     observation paths).
# Registered with CTest as `http_obs_smoke`.
#
# Usage: http_obs_smoke.sh <path-to-net_cli>
set -euo pipefail

CLI="${1:?usage: http_obs_smoke.sh <path-to-net_cli>}"
OUT_DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "${SERVER_PID}" ] && kill "${SERVER_PID}" 2>/dev/null || true
  [ -n "${SERVER_PID}" ] && wait "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${OUT_DIR}"
}
trap cleanup EXIT

fetch() {  # fetch <url> <out-file>; curl if present, else python3
  if command -v curl >/dev/null 2>&1; then
    curl -fsS --max-time 10 -o "$2" "$1"
  else
    python3 -c '
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as r:
    sys.stdout.buffer.write(r.read())' "$1" >"$2"
  fi
}

PORT_FILE="${OUT_DIR}/port"
HTTP_PORT_FILE="${OUT_DIR}/http_port"
SERVER_LOG="${OUT_DIR}/server.log"
CLIENT_LOG="${OUT_DIR}/client.log"

"${CLI}" --mode=serve --port=0 --port-file="${PORT_FILE}" \
  --http-port=0 --http-port-file="${HTTP_PORT_FILE}" \
  --duration=120 >"${SERVER_LOG}" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "${PORT_FILE}" ] && [ -s "${HTTP_PORT_FILE}" ] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "http_obs_smoke: server died during startup" >&2
    cat "${SERVER_LOG}" >&2
    exit 1
  fi
  sleep 0.1
done
PORT="$(cat "${PORT_FILE}")"
HTTP_PORT="$(cat "${HTTP_PORT_FILE}")"
if [ -z "${PORT}" ] || [ -z "${HTTP_PORT}" ]; then
  echo "http_obs_smoke: server never published its ports" >&2
  exit 1
fi
BASE="http://127.0.0.1:${HTTP_PORT}"

# Load in the background so the scrapes below observe a server that is
# actively completing queries (>= 1000 submissions/s sustained).
"${CLI}" --mode=netload --target="127.0.0.1:${PORT}" --connections=4 \
  --qps=2000 --duration=3 --seed=7 >"${CLIENT_LOG}" 2>&1 &
LOAD_PID=$!

# Scrape mid-load: by 1.5 s in, completions have flowed through every
# stage histogram.
sleep 1.5
fetch "${BASE}/metrics" "${OUT_DIR}/metrics.prom"
fetch "${BASE}/healthz" "${OUT_DIR}/healthz.txt"
fetch "${BASE}/statusz" "${OUT_DIR}/statusz.html"

wait "${LOAD_PID}" || {
  echo "http_obs_smoke: netload failed" >&2
  cat "${CLIENT_LOG}" >&2
  exit 1
}
cat "${CLIENT_LOG}"

# Final scrape after the load has drained: the counters are now stable
# and must agree with the client's own accounting.
fetch "${BASE}/varz" "${OUT_DIR}/varz.json"

kill -TERM "${SERVER_PID}"
SERVER_STATUS=0
wait "${SERVER_PID}" || SERVER_STATUS=$?
SERVER_PID=""
if [ "${SERVER_STATUS}" -ne 0 ]; then
  echo "http_obs_smoke: server exited with ${SERVER_STATUS}" >&2
  cat "${SERVER_LOG}" >&2
  exit 1
fi
cat "${SERVER_LOG}"

# --- The load really ran at >= 1000 submissions/s.
NETLOAD_LINE="$(grep '^NETLOAD ' "${CLIENT_LOG}")"
echo "${NETLOAD_LINE}" | awk '
  {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2]; }
  }
  END {
    if (v["rate"] + 0 < 1000) {
      print "http_obs_smoke: rate " v["rate"] " < 1000/s" > "/dev/stderr";
      exit 1;
    }
  }'

# --- /healthz said "accepting" while intake was open.
grep -qx 'accepting' "${OUT_DIR}/healthz.txt"

# --- /metrics is well-formed Prometheus text exposition and carries
#     per-stage latency histograms for at least 3 distinct stages.
python3 - "${OUT_DIR}/metrics.prom" <<'PYEOF'
import re, sys

path = sys.argv[1]
sample_re = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})?\s[^\s]+(\s[0-9]+)?$')
typed = set()
stages = set()
families_seen = []
with open(path) as f:
    lines = f.read().splitlines()
if not lines:
    sys.exit("http_obs_smoke: /metrics returned an empty body")
for n, line in enumerate(lines, 1):
    if not line:
        continue
    if line.startswith("# TYPE "):
        parts = line.split()
        if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "summary", "histogram", "untyped"):
            sys.exit(f"http_obs_smoke: bad TYPE line {n}: {line}")
        if parts[2] in typed:
            sys.exit(f"http_obs_smoke: duplicate TYPE for {parts[2]}")
        typed.add(parts[2])
        continue
    if line.startswith("#"):
        continue
    if not sample_re.match(line):
        sys.exit(f"http_obs_smoke: malformed sample line {n}: {line}")
    name = re.split(r"[{\s]", line, 1)[0]
    families_seen.append(name)
    m = re.search(r'stage="([^"]+)"', line)
    if m and name.startswith("qsched_stage_seconds"):
        stages.add(m.group(1))
for name in families_seen:
    base = re.sub(r"_(count|sum|min|max)$", "", name)
    if name not in typed and base not in typed:
        sys.exit(f"http_obs_smoke: sample {name} has no TYPE")
if len(stages) < 3:
    sys.exit(f"http_obs_smoke: only stages {sorted(stages)} in "
             "qsched_stage_seconds, need >= 3")
for name in ("qsched_process_resident_bytes",
             "qsched_process_peak_resident_bytes"):
    values = [float(line.split()[1]) for line in lines
              if line.startswith(name + " ")]
    if not values or values[0] <= 0:
        sys.exit(f"http_obs_smoke: {name} missing or not > 0: {values}")
print(f"http_obs_smoke: exposition OK, stages: {sorted(stages)}")
PYEOF

# --- /statusz is a self-contained HTML page with the latency breakdown.
grep -q '<!DOCTYPE html>' "${OUT_DIR}/statusz.html"
grep -q 'Latency breakdown' "${OUT_DIR}/statusz.html"
grep -q '<svg' "${OUT_DIR}/statusz.html"
if grep -Eq 'src=|href=' "${OUT_DIR}/statusz.html"; then
  echo "http_obs_smoke: /statusz references external resources" >&2
  exit 1
fi

# --- Conservation: the final /varz scrape and the load generator's exit
#     accounting describe the same run.
python3 - "${OUT_DIR}/varz.json" "${NETLOAD_LINE}" <<'PYEOF'
import json, sys

varz = json.load(open(sys.argv[1]))
metrics = varz["metrics"]
netload = dict(kv.split("=") for kv in sys.argv[2].split()[1:])

pairs = [
    ("qsched_rt_accepted_total", int(netload["accepted"])),
    ("qsched_rt_completed_total", int(netload["completed"])),
    ("qsched_rt_rejected_total", int(netload["rejected"])),
]
for name, want in pairs:
    got = int(metrics[name])
    if got != want:
        sys.exit(f"http_obs_smoke: {name}={got} but netload says {want}")
if int(netload["lost"]) or int(netload["unmatched"]):
    sys.exit("http_obs_smoke: netload lost/unmatched completions")
print("http_obs_smoke: /varz agrees with netload exit accounting")
PYEOF

echo "http_obs_smoke: live observability plane OK"
