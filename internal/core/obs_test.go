package core_test

import (
	"strings"
	"testing"

	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// figure1Job builds the check1 query of the paper's Fig 1 worked example:
//
//	x = new File; y = x; if (*) z = x; x.open(); y.close(); check(x, closed)
//
// It is proved with cheapest abstraction {x, y} in exactly 3 iterations
// (p = {} → {x} → {x, y}), the sequence the README and
// typestate/figure1_test.go pin down.
func figure1Job(t *testing.T) *typestate.Job {
	t.Helper()
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.If(lang.Atoms(lang.Move{Dst: "z", Src: "x"})),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
		lang.Atoms(lang.Invoke{V: "y", M: "close"}),
	)
	g := lang.BuildCFG(prog)
	a := typestate.New(typestate.FileProperty(), "h", typestate.CollectVars(g))
	want := uset.Bits(0).Add(a.Prop.MustState("closed"))
	return &typestate.Job{A: a, G: g, Q: typestate.Query{Nodes: []int{g.Exit}, Want: want}, K: 1}
}

// TestFigure1EventSequence replays Fig 1 with a capturing recorder and
// checks that the event stream has the exact shape of the known resolution
// and that its totals reconcile with the returned Result counters.
func TestFigure1EventSequence(t *testing.T) {
	cap := obs.NewCapture()
	res, err := core.Solve(figure1Job(t), core.Options{Recorder: cap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved || res.Iterations != 3 {
		t.Fatalf("status = %v after %d iterations, want proved after 3", res.Status, res.Iterations)
	}

	// Shape: the known resolution does 3 iterations, the first two failing
	// (backward run + learned clauses), the third proving the query.
	iterStarts := cap.Filter(obs.IterStart)
	forwards := cap.Filter(obs.ForwardDone)
	backwards := cap.Filter(obs.BackwardDone)
	learned := cap.Filter(obs.ClauseLearned)
	finals := cap.Filter(obs.QueryResolved)
	if len(iterStarts) != 3 || len(forwards) != 3 {
		t.Fatalf("got %d iter_start / %d forward_done events, want 3 / 3", len(iterStarts), len(forwards))
	}
	if len(backwards) != 2 {
		t.Fatalf("got %d backward_done events, want 2 (two failing iterations)", len(backwards))
	}
	if len(finals) != 1 || finals[0].Status != "proved" {
		t.Fatalf("query_resolved = %+v, want one proved event", finals)
	}
	// The iterations climb the abstraction lattice: |p| = 0, 1, 2.
	for i, e := range iterStarts {
		if e.Iter != i+1 || e.AbsSize != i {
			t.Errorf("iter_start %d: iter=%d abs_size=%d, want iter=%d abs_size=%d",
				i, e.Iter, e.AbsSize, i+1, i)
		}
	}
	// Known learned-clause count: one unit clause per failing iteration.
	if res.Clauses != 2 {
		t.Fatalf("Result.Clauses = %d, want 2", res.Clauses)
	}
	if len(learned) != res.Clauses {
		t.Fatalf("got %d clause_learned events, want %d", len(learned), res.Clauses)
	}
	if last := learned[len(learned)-1]; last.Clauses != res.Clauses {
		t.Errorf("final clause_learned total = %d, want %d", last.Clauses, res.Clauses)
	}

	// Reconciliation: event totals equal the Result counters exactly.
	steps := 0
	for _, e := range forwards {
		steps += e.Steps
	}
	fin := finals[0]
	if steps != res.ForwardSteps || fin.Steps != res.ForwardSteps {
		t.Errorf("forward steps: events sum %d, final %d, Result %d", steps, fin.Steps, res.ForwardSteps)
	}
	if fin.Iter != res.Iterations || fin.Clauses != res.Clauses || fin.AbsSize != res.Abstraction.Len() {
		t.Errorf("query_resolved totals %+v do not match Result %+v", fin, res)
	}

	// Phase events appear in strict per-iteration order.
	var kinds []string
	for _, e := range cap.Events() {
		switch e.Kind {
		case obs.IterStart, obs.ForwardDone, obs.BackwardDone, obs.QueryResolved:
			kinds = append(kinds, string(e.Kind))
		}
	}
	want := "iter_start forward_done backward_done " +
		"iter_start forward_done backward_done " +
		"iter_start forward_done query_resolved"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("event order:\ngot  %s\nwant %s", got, want)
	}

	// The minimum-cost SAT solver reported one timed query per iteration
	// (Instrument is wired through core.Solve).
	var minsatCalls int
	for _, e := range cap.Events() {
		if e.Kind == obs.TimingKind && e.Name == "minsat.minimum" {
			minsatCalls++
		}
	}
	if minsatCalls != 3 {
		t.Errorf("minsat.minimum timings = %d, want 3", minsatCalls)
	}
}

// TestSolveTaggedEvents: Solve's events carry no query of their own, so a
// caller that names the solve with obs.Tag gets every event named, the warm
// seed's too; the loop's batch index never leaks through.
func TestSolveTaggedEvents(t *testing.T) {
	var learned []core.ParamCube
	opts := core.Options{OnLearn: func(_ int, _ uset.Set, _ lang.Trace, cubes []core.ParamCube) {
		learned = append(learned, cubes...)
	}}
	cap := obs.NewCapture()
	opts.Recorder = obs.Tag(cap, "q")
	if _, err := core.Solve(figure1Job(t), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Solve(figure1Job(t), core.Options{Seed: learned, Recorder: obs.Tag(cap, "q")}); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.EventKind]int{}
	for _, e := range cap.Events() {
		switch e.Kind {
		case obs.CounterKind, obs.GaugeKind, obs.TimingKind:
			continue
		}
		kinds[e.Kind]++
		if e.Query != "q" {
			t.Errorf("%s event tagged %q, want %q", e.Kind, e.Query, "q")
		}
	}
	for _, k := range []obs.EventKind{obs.IterStart, obs.ForwardDone, obs.BackwardDone,
		obs.ClauseLearned, obs.WarmSeed, obs.QueryResolved} {
		if kinds[k] == 0 {
			t.Errorf("no %s event: the check above is vacuous for it", k)
		}
	}
}

// TestSolveNopRecorderUnchanged: solving with no recorder and with the
// explicit Nop recorder yields identical results (the instrumentation has
// no behavioral footprint).
func TestSolveNopRecorderUnchanged(t *testing.T) {
	a, err := core.Solve(figure1Job(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Solve(figure1Job(t), core.Options{Recorder: obs.Nop{}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status || a.Iterations != b.Iterations || a.Clauses != b.Clauses ||
		a.ForwardSteps != b.ForwardSteps || !a.Abstraction.Equal(b.Abstraction) {
		t.Fatalf("results differ: %+v vs %+v", a, b)
	}
}
