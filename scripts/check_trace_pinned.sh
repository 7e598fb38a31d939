#!/usr/bin/env bash
# Pins experiment_cli's --trace-out bytes for one seed: the Chrome trace
# of per-query spans must keep its size and POSIX cksum CRC, and the
# span count it reports. Any change to span recording or to the trace
# writer that alters the output fails here. Registered with CTest as
# `experiment_cli_trace_pinned`.
#
# Usage: check_trace_pinned.sh <path-to-experiment_cli>
set -eu

CLI="${1:?usage: check_trace_pinned.sh <path-to-experiment_cli>}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

TRACE="${OUT_DIR}/trace.json"
EXPECTED_CKSUM="1391393925 22085097"
EXPECTED_LINE="(193803 spans, 0 dropped)"

summary=$("${CLI}" --controller=query-scheduler --seed=7 \
  --period-seconds=120 --control-interval=60 --trace-out="${TRACE}")

actual=$(cksum < "${TRACE}")
if [ "${actual}" != "${EXPECTED_CKSUM}" ]; then
  echo "trace pin: cksum/bytes ${actual}, expected ${EXPECTED_CKSUM}" >&2
  exit 1
fi
if ! printf '%s\n' "${summary}" | grep -qF "${EXPECTED_LINE}"; then
  echo "trace pin: span count line missing ${EXPECTED_LINE}" >&2
  printf '%s\n' "${summary}" | grep wrote >&2 || true
  exit 1
fi
echo "trace pin: ${actual} ${EXPECTED_LINE}"
