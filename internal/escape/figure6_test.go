package escape

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/uset"
)

// figure6 builds the example program of Fig 6:
//
//	u = new h1; v = new h2; v.f = u; pc: local(u)?
func figure6(t *testing.T) (*Analysis, *lang.CFG) {
	t.Helper()
	prog := lang.Atoms(
		lang.Alloc{V: "u", H: "h1"},
		lang.Alloc{V: "v", H: "h2"},
		lang.Store{Dst: "v", F: "f", Src: "u"},
	)
	g := lang.BuildCFG(prog)
	locals, fields, sites := Universe(g)
	return New(locals, fields, sites), g
}

// abstraction builds a site set from names.
func (a *Analysis) abstraction(sites ...string) uset.Set {
	var out uset.Set
	for _, h := range sites {
		out = out.Add(a.Sites.ID(h))
	}
	return out
}

// TestFigure6Forward checks the α annotations of Fig 6 for both
// abstractions shown.
func TestFigure6Forward(t *testing.T) {
	a, g := figure6(t)
	q := Query{Nodes: []int{g.Exit}, V: "u"}
	job := &Job{A: a, G: g, Q: q, K: 1}

	// (a)/(b1): p = [h1↦E, h2↦E], i.e. no L-mapped sites.
	out := job.Forward(nil, nil)
	if out.Proved {
		t.Fatal("p = {} must fail local(u)")
	}
	states := dataflow.StatesAlong(out.Trace, a.Initial(), dataflow.At(a.Step, nil))
	want := []string{
		"[u↦N, v↦N, f↦N]",
		"[u↦E, v↦N, f↦N]",
		"[u↦E, v↦E, f↦N]",
		"[u↦E, v↦E, f↦N]",
	}
	for i, w := range want {
		if got := a.Format(states[i]); got != w {
			t.Errorf("state %d = %s, want %s", i, got, w)
		}
	}

	// (b2): p = [h1↦L, h2↦E]: the store escapes everything.
	p := a.abstraction("h1")
	out = job.Forward(nil, p)
	if out.Proved {
		t.Fatal("p = {h1} must fail local(u)")
	}
	states = dataflow.StatesAlong(out.Trace, a.Initial(), dataflow.At(a.Step, p))
	want = []string{
		"[u↦N, v↦N, f↦N]",
		"[u↦L, v↦N, f↦N]",
		"[u↦L, v↦E, f↦N]",
		"[u↦E, v↦E, f↦N]",
	}
	for i, w := range want {
		if got := a.Format(states[i]); got != w {
			t.Errorf("(b2) state %d = %s, want %s", i, got, w)
		}
	}
}

// TestFigure6WithUnderApprox reproduces (b1)+(b2): with k = 1 the first
// iteration learns h1.E, the second learns h1.L ∧ h2.E, and the third run
// proves the query with the cheapest abstraction [h1↦L, h2↦L].
func TestFigure6WithUnderApprox(t *testing.T) {
	a, g := figure6(t)
	q := Query{Nodes: []int{g.Exit}, V: "u"}
	job := &Job{A: a, G: g, Q: q, K: 1}

	// Iteration 1 cube: h1 must not be E, i.e. Neg = {h1}.
	out := job.Forward(nil, nil)
	cubes := job.Backward(nil, nil, out.Trace)
	if len(cubes) != 1 {
		t.Fatalf("iter 1 cubes = %v, want 1", cubes)
	}
	h1 := uset.New(a.Sites.ID("h1"))
	if !cubes[0].Pos.Empty() || !cubes[0].Neg.Equal(h1) {
		t.Fatalf("iter 1 cube = %v, want off{h1}", cubes[0])
	}

	// Iteration 2 cube: h1 L-mapped but h2 not, i.e. Pos={h1}, Neg={h2}.
	p := a.abstraction("h1")
	out = job.Forward(nil, p)
	cubes = job.Backward(nil, p, out.Trace)
	if len(cubes) != 1 {
		t.Fatalf("iter 2 cubes = %v, want 1", cubes)
	}
	h2 := uset.New(a.Sites.ID("h2"))
	if !cubes[0].Pos.Equal(h1) || !cubes[0].Neg.Equal(h2) {
		t.Fatalf("iter 2 cube = %v, want on{h1} off{h2}", cubes[0])
	}

	// Full run: proved with [h1↦L, h2↦L] in 3 iterations.
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("status = %v, want proved", res.Status)
	}
	if !res.Abstraction.Equal(a.abstraction("h1", "h2")) {
		t.Fatalf("abstraction = %v, want {h1, h2}", res.Abstraction)
	}
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", res.Iterations)
	}
}

// TestFigure6WithoutUnderApprox reproduces (a): with under-approximation
// disabled, one backward pass yields the full condition
// h1.E ∨ (h1.L ∧ h2.E), so TRACER reaches the cheapest abstraction after a
// single counterexample (two forward runs).
func TestFigure6WithoutUnderApprox(t *testing.T) {
	a, g := figure6(t)
	q := Query{Nodes: []int{g.Exit}, V: "u"}
	job := &Job{A: a, G: g, Q: q, K: 0}

	out := job.Forward(nil, nil)
	dI := a.Initial()
	states := dataflow.StatesAlong(out.Trace, dI, dataflow.At(a.Step, nil))
	dnf := meta.Run(job.Client(nil), out.Trace, states, a.NotQ(q))
	cubes := job.Cubes(dnf, dI)
	if len(cubes) != 2 {
		t.Fatalf("cubes = %v, want 2 (h1.E and h1.L∧h2.E)", cubes)
	}

	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("status = %v, want proved", res.Status)
	}
	if !res.Abstraction.Equal(a.abstraction("h1", "h2")) {
		t.Fatalf("abstraction = %v, want {h1, h2}", res.Abstraction)
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2", res.Iterations)
	}
}

// TestFigure6FormulaAnnotations checks the ψ annotations of Fig 6(b1):
// u.E at pc, then u.E before the store, h1.E at the start.
func TestFigure6FormulaAnnotations(t *testing.T) {
	a, g := figure6(t)
	q := Query{Nodes: []int{g.Exit}, V: "u"}
	job := &Job{A: a, G: g, Q: q, K: 1}
	out := job.Forward(nil, nil)
	dI := a.Initial()
	states := dataflow.StatesAlong(out.Trace, dI, dataflow.At(a.Step, nil))
	ann := meta.RunAnnotated(job.Client(nil), out.Trace, states, a.NotQ(q))
	if got := ann[len(ann)-1].String(); got != "u.E" {
		t.Errorf("ψ at pc = %s, want u.E", got)
	}
	if got := ann[0].String(); got != "h1.E" {
		t.Errorf("ψ at start = %s, want h1.E", got)
	}
}
