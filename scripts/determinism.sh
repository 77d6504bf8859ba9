#!/bin/sh
# Output determinism: runs each program under examples/, and tracer -auto on
# a generated tsp program, twice, and fails when the two outputs differ once
# wall times are masked. A verdict list printed in map order fails it.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# mask replaces every Go duration (12ms, 1.5s, 1m2s, 800µs) with <wall>.
mask() { sed -E 's/([0-9]+h)?([0-9]+m)?[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)/<wall>/g'; }

# twice LABEL CMD... runs CMD two times and compares the masked outputs.
twice() {
	label=$1
	shift
	"$@" | mask >"$tmp/a"
	"$@" | mask >"$tmp/b"
	if ! cmp -s "$tmp/a" "$tmp/b"; then
		echo "determinism: $label printed two different outputs:"
		diff "$tmp/a" "$tmp/b" || true
		exit 1
	fi
	echo "determinism: $label: $(wc -l <"$tmp/a") lines, identical"
}

for ex in examples/*/; do
	name=$(basename "$ex")
	go build -o "$tmp/$name" "./$ex"
	twice "examples/$name" "$tmp/$name"
done
go build -o "$tmp/tracer" ./cmd/tracer
go run ./cmd/benchgen -dir "$tmp" -name tsp >/dev/null
twice "tracer -auto tsp.tir" "$tmp/tracer" -auto "$tmp/tsp.tir"
