#!/bin/sh
# Daemon smoke gate: boot tracerd on an ephemeral port with a warm-start
# store, replay a small corpus of every client through traceload with
# verdict verification, require 100% success, then SIGTERM and require a
# clean (exit 0) graceful drain — all inside a wall budget. The drained
# daemon must have left one snapshot per client in the store; a second
# daemon on the same store then replays the type-state corpus again, warm,
# under the same checks.
#
# Usage: scripts/server_smoke.sh [requests] [concurrency]
set -e
cd "$(dirname "$0")/.."

n=${1:-32}
conc=${2:-8}
bin=$(mktemp -d /tmp/tracerd_smoke.XXXXXX)
log="$bin/tracerd.log"
access="$bin/access.ndjson"
warm="$bin/warm"
pid=""
# The daemon has usually exited by now; a failed kill must not turn a
# passing run into exit 1 under set -e.
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/tracerd" ./cmd/tracerd
go build -o "$bin/traceload" ./cmd/traceload

# boot starts tracerd on the warm store and sets pid and addr.
boot() {
	# Empty the log first: the background redirect below may not have
	# truncated the previous daemon's log before the address poll reads it.
	: > "$log"
	"$bin/tracerd" -addr 127.0.0.1:0 -warm-dir "$warm" -access-log "$access" > "$log" 2>&1 &
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
}

# replay runs traceload for one client with verdict verification.
replay() {
	"$bin/traceload" -addr "$addr" -bench tsp -client "$1" \
		-n "$n" -concurrency "$conc" -verify -require-success
}

# drain sends SIGTERM and requires a clean exit within the wall budget.
drain() {
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
}

boot
for client in typestate escape nullness; do
	replay "$client"
done
drain

# One program, one configuration: exactly one snapshot per client.
for client in typestate escape nullness; do
	count=$(find "$warm" -name "*-$client-*.json" | wc -l)
	if [ "$count" -ne 1 ]; then
		echo "warm store holds $count $client snapshot(s), want 1:"; ls -l "$warm"; exit 1
	fi
done

boot
replay typestate
drain
echo "server_smoke: OK ($((n * 4)) requests over two daemons on one warm store, clean drains)"
