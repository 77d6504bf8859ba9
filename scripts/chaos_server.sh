#!/bin/sh
# Daemon chaos gate: run traceload at high concurrency against tracerd with
# seeded fault injection firing at the server's request/batch/drain sites and
# inside the solver itself. Acceptance: the daemon process never dies, no
# verdict is ever wrong (traceload -verify), every degraded outcome is one of
# failed/exhausted/429/503, and SIGTERM still drains to a clean exit 0.
#
# Usage: scripts/chaos_server.sh [requests] [concurrency] [seed]
set -e
cd "$(dirname "$0")/.."

n=${1:-200}
conc=${2:-50}
seed=${3:-7}
bin=$(mktemp -d /tmp/tracerd_chaos.XXXXXX)
log="$bin/tracerd.log"
# The daemon has usually exited by now; a failed kill must not turn a
# passing run into exit 1 under set -e.
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/tracerd" ./cmd/tracerd
go build -o "$bin/traceload" ./cmd/traceload

"$bin/tracerd" -addr 127.0.0.1:0 -chaos-seed "$seed" -chaos-rate 0.05 \
	-queue-limit 64 -workers 2 > "$log" 2>&1 &
pid=$!

addr=""
for i in $(seq 1 100); do
	addr=$(sed -n 's/^tracerd: listening on //p' "$log")
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || { echo "tracerd died at startup:"; cat "$log"; exit 1; }
	sleep 0.1
done
[ -n "$addr" ] || { echo "tracerd never reported its address"; cat "$log"; exit 1; }

# -verify fails on any wrong proved/impossible verdict; shed (429/503) and
# degraded (failed/exhausted) outcomes are acceptable chaos fallout, so no
# -require-success. Transport failures would mean the daemon died mid-flight
# and fail the run.
"$bin/traceload" -addr "$addr" -bench tsp -client typestate \
	-n "$n" -concurrency "$conc" -seed "$seed" -verify

kill -0 "$pid" 2>/dev/null || {
	echo "tracerd died during the chaos soak:"; cat "$log"; exit 1; }

kill -TERM "$pid"
deadline=$(( $(date +%s) + 60 ))
while kill -0 "$pid" 2>/dev/null; do
	if [ "$(date +%s)" -ge "$deadline" ]; then
		echo "tracerd did not drain within 60s"; cat "$log"; exit 1
	fi
	sleep 0.2
done
set +e
wait "$pid" 2>/dev/null
status=$?
set -e
if [ "$status" -ne 0 ]; then
	echo "tracerd exited $status after SIGTERM under chaos:"; cat "$log"; exit 1
fi
echo "chaos_server: OK ($n requests at concurrency $conc, seed $seed, clean drain)"
