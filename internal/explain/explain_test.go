package explain

import (
	"strings"
	"testing"

	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// TestNarratedFigure1: the narrated run resolves exactly like the plain
// run and the narration contains the Fig 1 landmarks.
func TestNarratedFigure1(t *testing.T) {
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
		lang.Atoms(lang.Invoke{V: "y", M: "close"}),
	)
	g := lang.BuildCFG(prog)
	a := typestate.New(typestate.FileProperty(), "h", typestate.CollectVars(g))
	closed := uset.Bits(0).Add(a.Prop.MustState("closed"))
	job := &typestate.Job{A: a, G: g, Q: typestate.Query{Nodes: []int{g.Exit}, Want: closed}, K: 1}

	plain, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	narrated, err := ForTypestate(job, &sb).Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if narrated.Status != plain.Status || !narrated.Abstraction.Equal(plain.Abstraction) {
		t.Fatalf("narration changed the result: %+v vs %+v", narrated, plain)
	}
	out := sb.String()
	for _, want := range []string{
		"iteration 1: forward analysis with p = {}",
		"x = new h;",
		"α ⊤",
		"eliminated: every p with x∉p",
		"iteration 3",
		"PROVED with cheapest abstraction p = {x, y}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("narration missing %q:\n%s", want, out)
		}
	}
}

// TestNarratedCap: at the iteration cap the loop stops after the failing
// forward run, so the capped iteration narrates no backward pass.
func TestNarratedCap(t *testing.T) {
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
		lang.Atoms(lang.Invoke{V: "y", M: "close"}),
	)
	g := lang.BuildCFG(prog)
	a := typestate.New(typestate.FileProperty(), "h", typestate.CollectVars(g))
	closed := uset.Bits(0).Add(a.Prop.MustState("closed"))
	job := &typestate.Job{A: a, G: g, Q: typestate.Query{Nodes: []int{g.Exit}, Want: closed}, K: 1}

	var sb strings.Builder
	res, err := ForTypestate(job, &sb).Solve(core.Options{MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Exhausted || res.Iterations != 2 {
		t.Fatalf("result = %+v, want exhausted after 2 iterations", res)
	}
	out := sb.String()
	if n := strings.Count(out, "counterexample trace"); n != 1 {
		t.Errorf("narrated %d backward passes, want 1 (the capped iteration has none):\n%s", n, out)
	}
	if !strings.Contains(out, "iteration 2: forward analysis") ||
		!strings.Contains(out, "UNRESOLVED: iteration cap reached after 2 iterations") {
		t.Errorf("narration misses the capped iteration or its verdict:\n%s", out)
	}
}

// TestNarratedFigure6: the escape narration renders the site mapping and
// the eliminated cubes of Fig 6(b).
func TestNarratedFigure6(t *testing.T) {
	prog := lang.Atoms(
		lang.Alloc{V: "u", H: "h1"},
		lang.Alloc{V: "v", H: "h2"},
		lang.Store{Dst: "v", F: "f", Src: "u"},
	)
	g := lang.BuildCFG(prog)
	locals, fields, sites := escape.Universe(g)
	a := escape.New(locals, fields, sites)
	job := &escape.Job{A: a, G: g, Q: escape.Query{Nodes: []int{g.Exit}, V: "u"}, K: 1}

	var sb strings.Builder
	res, err := ForEscape(job, &sb).Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved || res.Iterations != 3 {
		t.Fatalf("result = %+v", res)
	}
	out := sb.String()
	for _, want := range []string{
		"p = [h1↦E, h2↦E]",
		"eliminated: every p with h1↦E",
		"eliminated: every p with h1↦L with h2↦E",
		"PROVED with cheapest abstraction p = [h1↦L, h2↦L]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("narration missing %q:\n%s", want, out)
		}
	}
}
