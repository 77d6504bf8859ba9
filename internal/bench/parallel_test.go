package bench

import "testing"

// TestParallelRace checks that parallel query resolution (a) is free of
// data races (run under -race in CI) and (b) yields exactly the sequential
// outcomes.
func TestParallelRace(t *testing.T) {
	b := MustLoad(Suite()[0])
	// The step quota, not a wall budget, bounds each query: outcomes must be
	// deterministic regardless of scheduling, which a wall budget under
	// contention would break.
	opts := RunOptions{K: 5, MaxIters: 300, Workers: 8}
	seq := opts
	seq.Workers = 1
	par, err := Run(b, Escape, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(b, Escape, seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Outcomes {
		if par.Outcomes[i].Status != ref.Outcomes[i].Status || par.Outcomes[i].ID != ref.Outcomes[i].ID {
			t.Fatalf("parallel diverged at %d: %+v vs %+v", i, par.Outcomes[i], ref.Outcomes[i])
		}
	}
	if _, err := Run(b, Typestate, opts); err != nil {
		t.Fatal(err)
	}
}
