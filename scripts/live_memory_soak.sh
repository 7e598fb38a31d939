#!/usr/bin/env bash
# Soak test for a long-lived server's memory: starts net_cli
# --mode=serve at time scale 6000 (one planner cycle per 10 ms wall) with
# the embedded HTTP server, drives it with --mode=netload at 1000
# submissions/s, and reads qsched_process_peak_resident_bytes from
# /metrics at T = 5 s and at 2T after the load starts. The planner runs
# ~500 cycles between the two reads; a server whose per-interval state
# grows with uptime grows by hundreds of KB there, one that keeps a
# fixed window does not. The margin is fixed here, before measuring:
# peak RSS may grow by at most MARGIN_BYTES (256 KiB) from T to 2T.
# Registered with CTest as `live_memory_soak`.
#
# Usage: live_memory_soak.sh <path-to-net_cli>
set -euo pipefail

CLI="${1:?usage: live_memory_soak.sh <path-to-net_cli>}"
T_SECONDS=5
MARGIN_BYTES=$((256 * 1024))

OUT_DIR="$(mktemp -d)"
SERVER_PID=""
LOAD_PID=""
cleanup() {
  [ -n "${LOAD_PID}" ] && kill "${LOAD_PID}" 2>/dev/null || true
  [ -n "${LOAD_PID}" ] && wait "${LOAD_PID}" 2>/dev/null || true
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

# peak_rss <metrics-file>: the peak resident bytes sample, as an integer.
peak_rss() {
  awk '$1 == "qsched_process_peak_resident_bytes" { printf "%d\n", $2 }' "$1"
}

PORT_FILE="${OUT_DIR}/port"
HTTP_PORT_FILE="${OUT_DIR}/http_port"
SERVER_LOG="${OUT_DIR}/server.log"
CLIENT_LOG="${OUT_DIR}/client.log"

"${CLI}" --mode=serve --port=0 --port-file="${PORT_FILE}" \
  --http-port=0 --http-port-file="${HTTP_PORT_FILE}" \
  --time-scale=6000 --duration=120 >"${SERVER_LOG}" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "${PORT_FILE}" ] && [ -s "${HTTP_PORT_FILE}" ] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "live_memory_soak: server died during startup" >&2
    cat "${SERVER_LOG}" >&2
    exit 1
  fi
  sleep 0.1
done
PORT="$(cat "${PORT_FILE}")"
HTTP_PORT="$(cat "${HTTP_PORT_FILE}")"
if [ -z "${PORT}" ] || [ -z "${HTTP_PORT}" ]; then
  echo "live_memory_soak: server never published its ports" >&2
  exit 1
fi
BASE="http://127.0.0.1:${HTTP_PORT}"

# The first scrape sets up the HTTP thread's allocations (~170 KB of
# arena); make it now so the reads below see only the serving path's
# growth.
fetch "${BASE}/metrics" "${OUT_DIR}/metrics_warmup.prom"

# The load outlasts the second read by a second.
"${CLI}" --mode=netload --target="127.0.0.1:${PORT}" --connections=2 \
  --qps=1000 --duration=$((2 * T_SECONDS + 1)) --seed=11 \
  >"${CLIENT_LOG}" 2>&1 &
LOAD_PID=$!
LOAD_START=$(date +%s.%N)

sleep_until() {  # sleep_until <seconds after LOAD_START>
  python3 -c '
import sys, time
delay = float(sys.argv[1]) + float(sys.argv[2]) - time.time()
if delay > 0:
    time.sleep(delay)' "${LOAD_START}" "$1"
}

sleep_until "${T_SECONDS}"
fetch "${BASE}/metrics" "${OUT_DIR}/metrics_t.prom"
sleep_until "$((2 * T_SECONDS))"
fetch "${BASE}/metrics" "${OUT_DIR}/metrics_2t.prom"

wait "${LOAD_PID}" || {
  echo "live_memory_soak: netload failed" >&2
  cat "${CLIENT_LOG}" >&2
  exit 1
}
LOAD_PID=""

kill -TERM "${SERVER_PID}"
SERVER_STATUS=0
wait "${SERVER_PID}" || SERVER_STATUS=$?
SERVER_PID=""
if [ "${SERVER_STATUS}" -ne 0 ]; then
  echo "live_memory_soak: server exited with ${SERVER_STATUS}" >&2
  cat "${SERVER_LOG}" >&2
  exit 1
fi

# The load really ran (>= 500 submissions/s even on a host busy with
# other tests) and lost nothing, so the serving path was busy between
# the two reads; the planner runs on model time either way.
grep '^NETLOAD ' "${CLIENT_LOG}" | awk '
  {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2]; }
  }
  END {
    if (v["rate"] + 0 < 500 || v["lost"] + 0 != 0) {
      print "live_memory_soak: bad load: " $0 > "/dev/stderr";
      exit 1;
    }
  }'

PEAK_T="$(peak_rss "${OUT_DIR}/metrics_t.prom")"
PEAK_2T="$(peak_rss "${OUT_DIR}/metrics_2t.prom")"
if [ -z "${PEAK_T}" ] || [ -z "${PEAK_2T}" ] || [ "${PEAK_T}" -le 0 ]; then
  echo "live_memory_soak: no qsched_process_peak_resident_bytes" >&2
  exit 1
fi
GROWTH=$((PEAK_2T - PEAK_T))
echo "live_memory_soak: peak RSS ${PEAK_T} B at ${T_SECONDS} s," \
     "${PEAK_2T} B at $((2 * T_SECONDS)) s, growth ${GROWTH} B" \
     "(margin ${MARGIN_BYTES} B)"
if [ "${GROWTH}" -gt "${MARGIN_BYTES}" ]; then
  echo "live_memory_soak: peak RSS grew by more than the margin" >&2
  exit 1
fi
echo "live_memory_soak: OK"
