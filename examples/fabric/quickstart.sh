#!/usr/bin/env sh
# Quickstart for the distributed simulation fabric (docs/FABRIC.md):
# start a coordinator and two workers, watch them register, submit a
# job that shards across the pool, prove the shared result store, kill
# a worker mid-pool and show the survivor absorbing the work, then
# drain everything cleanly.
#
#   sh examples/fabric/quickstart.sh
#
# Requires: go, curl. Runs entirely on localhost.
set -eu

ADDR="${ADDR:-127.0.0.1:8093}"
BASE="http://$ADDR"
W1_ADDR="${W1_ADDR:-127.0.0.1:8094}"
W2_ADDR="${W2_ADDR:-127.0.0.1:8095}"
cd "$(dirname "$0")/../.."

echo "==> building spamer (spamer serve is the coordinator, spamer worker the agent)"
SPAMER="${TMPDIR:-/tmp}/spamer"
go build -o "$SPAMER" ./cmd/spamer

echo "==> starting the coordinator on $ADDR"
"$SPAMER" serve -addr "$ADDR" -fabric-heartbeat 500ms &
SERVE_PID=$!
trap 'kill "$SERVE_PID" $W1_PID $W2_PID 2>/dev/null || true' EXIT INT TERM
for _ in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done

echo "==> starting two workers"
"$SPAMER" worker -coordinator "$BASE" -addr "$W1_ADDR" \
    -advertise "http://$W1_ADDR" -id w1 &
W1_PID=$!
"$SPAMER" worker -coordinator "$BASE" -addr "$W2_ADDR" \
    -advertise "http://$W2_ADDR" -id w2 &
W2_PID=$!

echo "==> waiting for both to register"
for _ in $(seq 1 100); do
    curl -fsS "$BASE/metrics" | grep -q '^spamer_fabric_workers_present 2$' && break
    sleep 0.1
done
curl -fsS "$BASE/metrics" | grep '^spamer_fabric_workers_present'

echo
echo "==> submitting a 3-spec job: shards place across the pool by canonical hash"
SPECS='[{"benchmark":"ping-pong","algorithms":["vl","0delay"],"label":"qs-a"},
{"benchmark":"incast","algorithms":["vl"],"label":"qs-b"},
{"benchmark":"ping-pong","algorithms":["vl"],"label":"qs-c"}]'
JOB=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$SPECS" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
for _ in $(seq 1 200); do
    STATE=$(curl -fsS "$BASE/v1/jobs/$JOB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$STATE" = done ] || [ "$STATE" = failed ] && break
    sleep 0.2
done
echo "job $JOB: $STATE"
curl -fsS "$BASE/metrics" | grep -E '^spamer_fabric_(placements_total|worker_specs_total)'

echo
echo "==> a recombined batch of already-seen specs is answered from the shared store"
RECOMBINED='[{"benchmark":"incast","algorithms":["vl"],"label":"qs-b"},
{"benchmark":"ping-pong","algorithms":["vl"],"label":"qs-c"}]'
curl -fsS -o /dev/null -w 'HTTP %{response_code} in %{time_total}s\n' \
    -X POST "$BASE/v1/jobs" -d "$RECOMBINED"
curl -fsS "$BASE/metrics" | grep '^spamer_fabric_store_hits_total'

echo
echo "==> SIGKILL w1: fresh work re-leases onto the survivor"
kill -9 "$W1_PID" 2>/dev/null || true
KILLED='[{"benchmark":"ping-pong","algorithms":["vl"],"label":"after-kill-1"},
{"benchmark":"incast","algorithms":["vl"],"label":"after-kill-2"}]'
JOB=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$KILLED" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
for _ in $(seq 1 200); do
    STATE=$(curl -fsS "$BASE/v1/jobs/$JOB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$STATE" = done ] || [ "$STATE" = failed ] && break
    sleep 0.2
done
echo "job $JOB: $STATE (completed despite the dead worker)"
curl -fsS "$BASE/metrics" | grep -E '^spamer_fabric_(retries_total|worker_deaths_total|workers_present)'

echo
echo "==> SIGTERM w2: graceful worker drain (healthz flips, leases finish)"
kill -TERM "$W2_PID"
wait "$W2_PID" 2>/dev/null || true

echo "==> SIGTERM coordinator"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
trap - EXIT
echo "done"
