package core_test

import (
	"strings"
	"testing"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/typestate"
)

// twoReads is the type-state analysis with a faulty Step: every application
// reads parameters 0 and 1, which the reader refuses.
type twoReads struct{ *typestate.Analysis }

func (a twoReads) Step(p *dataflow.Params, at lang.Atom, d typestate.State) typestate.State {
	p.Has(0)
	p.Has(1)
	return a.Analysis.Step(p, at, d)
}

// TestStepReadingTwoParamsFails: a client whose step reads two parameters
// in one application resolves Failed with the reader's panic, under Solve
// and under a 2-worker SolveBatch, rather than returning a verdict.
func TestStepReadingTwoParamsFails(t *testing.T) {
	g := lang.BuildCFG(lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
	))
	fresh := func(string) twoReads {
		return twoReads{typestate.New(typestate.FileProperty(), "h", typestate.CollectVars(g))}
	}
	a := fresh("")
	want := typestate.Query{Nodes: []int{g.Exit}, Want: 1 << a.Prop.MustState("opened")}
	const msg = "parameters 0 and 1"

	job := &client.Job[typestate.State, typestate.Query, twoReads]{A: a, G: g, Q: want, K: 1}
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Failed || !strings.Contains(res.Failure, msg) {
		t.Fatalf("Solve: status %v, failure %q; want failed naming %s", res.Status, res.Failure, msg)
	}

	queries := []typestate.Query{want, {Nodes: []int{g.Entry}, Want: want.Want}}
	batch := client.NewBatch(g, fresh, queries, nil, 1, client.NewCaches(typestate.Theory{}))
	bres, err := core.SolveBatch(batch, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for q, r := range bres.Results {
		if r.Status != core.Failed || !strings.Contains(r.Failure, msg) {
			t.Errorf("SolveBatch query %d: status %v, failure %q; want failed naming %s", q, r.Status, r.Failure, msg)
		}
	}
}
