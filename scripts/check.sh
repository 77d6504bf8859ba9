#!/bin/sh
# Tier-1 gate: runs the Makefile's check target, the one definition of the
# gate (format, vet, build, race-enabled tests, and vet + race tests of the
# cmd/tracerbench module).
exec make -C "$(dirname "$0")/.." check
