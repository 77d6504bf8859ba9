#!/bin/sh
# Tier-1 gate (same as `make check`): format, vet, build, race-enabled tests,
# and vet + race tests of the cmd/tracerbench module.
set -e
cd "$(dirname "$0")/.."

out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi
go vet ./...
go build ./...
go test -race ./...
# cmd/tracerbench is its own module, so ./... above skips it.
(cd cmd/tracerbench && go vet . && go test -race .)
echo "check: OK"
