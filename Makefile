# Tier-1 gate: everything a PR must keep green (see ROADMAP.md).
.PHONY: check fmt vet build test test-tracerbench bench bench-micro bench-smoke chaos fuzz \
	smoke-server chaos-server determinism

check: fmt vet build test test-tracerbench

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race ./...

# cmd/tracerbench is its own module (it builds against this one through a
# replace directive), so ./... above skips it.
test-tracerbench:
	cd cmd/tracerbench && go vet . && go test -race .

# Fault-injection suite: the deterministic chaos tests (panic isolation,
# budget trips, worker-count determinism, and the seeded sweep) under -race,
# the shared-Program tests repeated under -race (a loaded program's solver
# caches are filled from every goroutine that holds it), plus seeded chaos
# runs of the tracer CLI on a real program, batched and one query at a time.
chaos:
	go test -race -count=1 -run 'Chaos|PanicIsolation|DeadlineMidPhase|PartialStats' \
		./internal/core/ -v
	go test -race -count=1 ./internal/faultinject/ ./internal/budget/ -v
	go test -race -count=10 \
		-run 'TestProgramIsSharable|TestJobsShareProgramCaches|TestProgramCachesOrderIndependent' \
		./internal/driver/
	go run ./cmd/benchgen -dir /tmp -name tsp
	go run ./cmd/tracer -chaos-seed 7 -chaos-rate 0.2 -auto -batch -batch-workers 4 /tmp/tsp.tir
	go run ./cmd/tracer -chaos-seed 7 -chaos-rate 0.2 -auto /tmp/tsp.tir

# Differential fuzzing: the oracle package's fixed-seed property and
# metamorphic suites under -race, both delta chains' flip suites against a
# cold solve over FUZZ_N seeds, the minimum-model diagram against the
# reference branch-and-bound search over FUZZ_N generated CEGAR sequences
# (single-goroutine, so without -race, which slows it about 20x), the
# diagram replaying every suite query's learned cubes against the reference
# (no call may trip the node cap; it prints the largest diagram) and then
# re-solving the queries exhausted at 100 iterations at 5000, where each
# must end impossible, Solve against SolveBatch on every query of all seven
# suite programs and the harness's verdicts at paperbench's settings, per
# query and through a batch of 4 workers, against cmd/tracerbench's golden
# table (also without -race; about 15 s), then a
# seeded CLI sweep of the brute-force oracle on every client ("Ground truth &
# fuzzing" in ARCHITECTURE.md).
# Override for longer hunts, e.g.:  make fuzz FUZZ_SEED=900000 FUZZ_N=100000
FUZZ_SEED ?= 1
FUZZ_N    ?= 5000
fuzz:
	go test -race -count=1 ./internal/oracle/... -v
	DECODER_FUZZ_N=$(FUZZ_N) go test -race -count=1 \
		-run 'TestDecoderSeededFuzz|FuzzDecodeRequest' ./internal/server/ -v
	CHAIN_FUZZ_N=$(FUZZ_N) go test -count=1 -run 'TestChainFlipChain' ./internal/dataflow/ ./internal/rhs/
	MINSAT_FUZZ_N=$(FUZZ_N) go test -count=1 -run 'TestEngineMatchesReference|TestDiagramMatchesSearch' ./internal/minsat/ -v
	MINSAT_REPLAY_SUITE=all go test -count=1 -run 'TestReplayMatchesReference' ./internal/minsat/ -v
	SOLVE_DIFF_SUITE=all go test -count=1 -run 'TestSolveMatchesBatch|TestVerdictsMatchGolden' ./internal/bench/ -v
	go run ./cmd/tracer -fuzz-seed $(FUZZ_SEED) -fuzz-n $(FUZZ_N) -fuzz-meta

# Output determinism (also a CI step): every example, tracer -auto and
# tracer -auto -batch on a generated tsp program, and paperbench's suite-run
# tables, run twice each; the outputs must match once wall times are masked,
# and the batch run's verdict lines must equal the per-query run's.
determinism:
	scripts/determinism.sh

# Daemon smoke: boot tracerd on an ephemeral port, replay a small corpus via
# traceload with verdict verification (100% success required), SIGTERM, and
# require a clean graceful drain.
smoke-server:
	scripts/server_smoke.sh

# Daemon chaos soak: traceload at high concurrency against tracerd under
# seeded fault injection — zero process deaths, zero wrong verdicts, only
# failed/exhausted/429/503 degradation, clean drain.
chaos-server:
	scripts/chaos_server.sh

# Scaled-down run of every table/figure benchmark plus micro-benchmarks.
bench:
	go test -bench=. -benchmem -run xxx .

# Perf-kernel microbenchmarks with allocs/op — the regression gate for the
# forward kernels (the delta chain replaying a recorded per-query
# abstraction sequence, and the cold reference solve, on avrora), the
# backward walk replaying a recorded per-query sequence of (abstraction,
# trace) pairs on avrora, the
# interned DNF kernel's hot paths (Approx, WpDNF on a warm and on a cold WP
# cache, Simplify), the minimum-model diagram on a CEGAR-shaped
# blocking-cube sequence, the CEGAR loop's own overhead on a mock problem,
# and opening a warm-start session on a full store.
bench-micro:
	go test -run=NONE -bench 'Forward|Backward' -benchmem .
	go test -run=NONE -bench 'Approx|WpDNF|Simplify' -benchmem ./internal/formula/...
	go test -run=NONE -bench 'MinimumCEGAR' -benchmem ./internal/minsat/...
	go test -run=NONE -bench 'SolveLoop' -benchmem ./internal/core/...
	go test -run=NONE -bench 'SessionOpen' -benchmem ./internal/warm/...

# Benchmark smoke (also a CI job): one pass of each cmd/tracerbench workload.
# A run is correct when every verdict it delivers matches the golden table
# (cmd/tracerbench/README.md, "Correctness"); any other last line, or none,
# fails the target. Measuring and comparing commits is tracerbench's own job.
bench-smoke:
	@for w in sweep batch edit serve; do \
		last=$$(bash cmd/tracerbench/run.sh --workload $$w --seconds 1 | tail -n 1); \
		echo "bench-smoke: $$w: $$(echo "$$last" | cut -d, -f1-3)"; \
		case "$$last" in '{"correct":true,'*) ;; *) echo "bench-smoke: $$w is not correct"; exit 1;; esac; \
	done
