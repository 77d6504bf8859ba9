#!/bin/sh
# Daemon smoke gate: boot tracerd on an ephemeral port, replay a small
# corpus of every client through traceload with verdict verification,
# require 100% success, then SIGTERM and require a clean (exit 0) graceful
# drain — all inside a wall budget.
#
# Usage: scripts/server_smoke.sh [requests] [concurrency]
set -e
cd "$(dirname "$0")/.."

n=${1:-32}
conc=${2:-8}
bin=$(mktemp -d /tmp/tracerd_smoke.XXXXXX)
log="$bin/tracerd.log"
access="$bin/access.ndjson"
# The daemon has usually exited by now; a failed kill must not turn a
# passing run into exit 1 under set -e.
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/tracerd" ./cmd/tracerd
go build -o "$bin/traceload" ./cmd/traceload

"$bin/tracerd" -addr 127.0.0.1:0 -access-log "$access" > "$log" 2>&1 &
pid=$!

# The daemon prints "tracerd: listening on <addr>" once bound.
addr=""
for i in $(seq 1 100); do
	addr=$(sed -n 's/^tracerd: listening on //p' "$log")
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || { echo "tracerd died at startup:"; cat "$log"; exit 1; }
	sleep 0.1
done
[ -n "$addr" ] || { echo "tracerd never reported its address"; cat "$log"; exit 1; }

"$bin/traceload" -addr "$addr" -bench tsp -client typestate \
	-n "$n" -concurrency "$conc" -verify -require-success
"$bin/traceload" -addr "$addr" -bench tsp -client escape \
	-n "$n" -concurrency "$conc" -verify -require-success
"$bin/traceload" -addr "$addr" -bench tsp -client nullness \
	-n "$n" -concurrency "$conc" -verify -require-success

# Graceful drain: SIGTERM must produce a clean exit within the wall budget.
kill -TERM "$pid"
deadline=$(( $(date +%s) + 30 ))
while kill -0 "$pid" 2>/dev/null; do
	if [ "$(date +%s)" -ge "$deadline" ]; then
		echo "tracerd did not drain within 30s"; cat "$log"; exit 1
	fi
	sleep 0.2
done
set +e
wait "$pid" 2>/dev/null
status=$?
set -e
if [ "$status" -ne 0 ]; then
	echo "tracerd exited $status after SIGTERM:"; cat "$log"; exit 1
fi
grep -q '"kind":"query_resolved"' "$access" || {
	echo "access log has no query_resolved events"; exit 1; }
echo "server_smoke: OK ($((n * 3)) requests, clean drain)"
