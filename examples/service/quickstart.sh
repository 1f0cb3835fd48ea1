#!/usr/bin/env sh
# Quickstart for the `spamer serve` daemon: start it, submit a job, poll
# it, watch the SSE progress stream, prove the content-addressed cache
# hit, read the metrics, and drain with SIGTERM.
#
#   sh examples/service/quickstart.sh
#
# Requires: go, curl. Runs entirely on localhost.
set -eu

ADDR="${ADDR:-127.0.0.1:8091}"
BASE="http://$ADDR"
cd "$(dirname "$0")/../.."

echo "==> building spamer and starting spamer serve on $ADDR"
SPAMER="${TMPDIR:-/tmp}/spamer"
go build -o "$SPAMER" ./cmd/spamer
"$SPAMER" serve -addr "$ADDR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT INT TERM

for _ in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "$BASE/healthz"; echo

echo
echo "==> submitting a job (the same JSON spamer run reads)"
SPEC='{"benchmark":"FIR","algorithms":["vl","0delay","tuned"],"label":"quickstart"}'
SUBMIT=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$SPEC")
echo "$SUBMIT"
JOB=$(echo "$SUBMIT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
echo "job id: $JOB"

echo
echo "==> polling until done"
for _ in $(seq 1 100); do
    STATE=$(curl -fsS "$BASE/v1/jobs/$JOB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    echo "state: $STATE"
    [ "$STATE" = done ] || [ "$STATE" = failed ] && break
    sleep 0.2
done
curl -fsS "$BASE/v1/jobs/$JOB"; echo

echo
echo "==> streaming SSE progress of a fresh (larger) job"
BIG='{"benchmark":"firewall","scale":2,"label":"sse-demo"}'
JOB2=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$BIG" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
curl -sN --max-time 30 "$BASE/v1/jobs/$JOB2/events"

echo
echo "==> re-submitting the first spec with permuted keys: cache hit, no simulation"
PERMUTED='{"label":"quickstart","algorithms":["vl","0delay","tuned"],"benchmark":"FIR","scale":1}'
curl -fsS -o /dev/null -w 'HTTP %{response_code} in %{time_total}s\n' \
    -X POST "$BASE/v1/jobs" -d "$PERMUTED"

echo
echo "==> metrics (queue, in-flight, cache, latency histogram)"
curl -fsS "$BASE/metrics" | grep -E '^spamer_serve' | head -20

echo
echo "==> SIGTERM: graceful drain"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
trap - EXIT
echo "done"
