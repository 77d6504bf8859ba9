package bench

import (
	"testing"
	"time"

	"tracer/internal/core"
)

func warmTestOpts() RunOptions {
	return RunOptions{K: 5, MaxIters: 100, Timeout: 2 * time.Second, MaxQueries: 40, Fresh: true}
}

// A warm re-run of an unchanged program must reproduce the cold verdicts and
// abstractions exactly, and every non-replayed query must finish within two
// CEGAR iterations (the seeded clauses make the first minimum already
// sufficient, or expose impossibility outright).
func TestRunWarmMatchesCold(t *testing.T) {
	b := MustLoad(Suite()[0])
	for _, cl := range []Client{Typestate, Escape} {
		dir := t.TempDir()
		opts := warmTestOpts()
		cold, err := Run(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.WarmDir = dir
		if _, err := Run(b, cl, opts); err != nil { // populate
			t.Fatal(err)
		}
		warm, err := Run(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(cold.Outcomes) != len(warm.Outcomes) {
			t.Fatalf("%s: %d cold vs %d warm outcomes", cl, len(cold.Outcomes), len(warm.Outcomes))
		}
		for i, c := range cold.Outcomes {
			w := warm.Outcomes[i]
			if c.Status != w.Status || c.Abstraction != w.Abstraction {
				t.Errorf("%s %s: cold %s/%q vs warm %s/%q", cl, c.ID, c.Status, c.Abstraction, w.Status, w.Abstraction)
			}
			if w.Status != core.Exhausted && w.Iterations > 2 {
				t.Errorf("%s %s: warm run took %d iterations", cl, w.ID, w.Iterations)
			}
		}
	}
}

// The grouped batch solver must also produce identical verdicts when warm
// started, and its learned clauses must round-trip into a later run.
func TestRunBatchWarmMatchesCold(t *testing.T) {
	b := MustLoad(Suite()[0])
	for _, cl := range []Client{Typestate, Escape} {
		dir := t.TempDir()
		opts := warmTestOpts()
		opts.Timeout = 30 * time.Second // batch budget is whole-run
		cold, err := RunBatch(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.WarmDir = dir
		if _, err := RunBatch(b, cl, opts); err != nil { // populate
			t.Fatal(err)
		}
		warm, err := RunBatch(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(cold.Results) != len(warm.Results) {
			t.Fatalf("%s: %d cold vs %d warm results", cl, len(cold.Results), len(warm.Results))
		}
		for q, c := range cold.Results {
			w := warm.Results[q]
			if c.Status != w.Status || c.Abstraction.Key() != w.Abstraction.Key() {
				t.Errorf("%s query %d: cold %s/%q vs warm %s/%q",
					cl, q, c.Status, c.Abstraction.Key(), w.Status, w.Abstraction.Key())
			}
		}
		// Warm seeding must not cost forward work: the warm batch needs no
		// more forward runs than the cold one.
		if warm.Stats.ForwardRuns > cold.Stats.ForwardRuns {
			t.Errorf("%s: warm batch did %d forward runs, cold %d",
				cl, warm.Stats.ForwardRuns, cold.Stats.ForwardRuns)
		}
	}
}
