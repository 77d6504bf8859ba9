package typestate

import (
	"testing"

	"tracer/internal/client"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/uset"
)

// describe builds a conjunction that holds at exactly (p, d) within the
// two-variable test universe — the Descriptor of the WP synthesizer. The
// conjunction interns its literals into u.
func (a *Analysis) describe(u *formula.Universe, p uset.Set, d State) formula.Conj {
	var lits []formula.Lit
	for i := 0; i < a.Vars.Len(); i++ {
		lits = append(lits, formula.Lit{P: PParam{a.Vars.Value(i)}, Neg: !p.Has(i)})
	}
	if d.Top {
		lits = append(lits, formula.Lit{P: PErr{}})
		return formula.NewConj(u, lits...)
	}
	lits = append(lits, formula.Lit{P: PErr{}, Neg: true})
	for s, name := range a.Prop.States {
		lits = append(lits, formula.Lit{P: PType{S: s, Name: name}, Neg: !d.TS.Has(s)})
	}
	vs := a.MustAlias(d)
	for i := 0; i < a.Vars.Len(); i++ {
		lits = append(lits, formula.Lit{P: PVar{a.Vars.Value(i)}, Neg: !vs.Has(i)})
	}
	return formula.NewConj(u, lits...)
}

// TestHandwrittenWPMatchesSynthesized cross-checks the Fig 10 transfer
// functions against the brute-force synthesized weakest preconditions (§8's
// proposed recipe) on the full small universe.
func TestHandwrittenWPMatchesSynthesized(t *testing.T) {
	for _, prop := range []*Property{FileProperty(), StressProperty([]string{"m"})} {
		a := newTestAnalysis(prop)
		u := formula.NewUniverse(Theory{})
		desc := meta.Descriptor[uset.Set, State]{
			Describe: func(p uset.Set, d State) formula.Conj { return a.describe(u, p, d) },
			Eval:     func(l formula.Lit, p uset.Set, d State) bool { return client.EvalLit(a, l, p, d) },
		}
		abstractions := a.AllAbstractions()
		states := a.AllStates()
		for _, atom := range testAtoms(prop) {
			for _, prim := range primsFor(a) {
				bad := meta.CheckAgainstSynthesized(
					atom, prim, a.WP,
					func(p uset.Set, d State) State { return dataflow.At(a.Step, p)(atom, d) },
					desc, u, abstractions, states,
				)
				if bad != 0 {
					t.Errorf("[%s]♭(%s) disagrees with synthesized WP at %d points", atom, prim, bad)
				}
			}
		}
	}
}

// TestSynthesizedWPIsPrecondition sanity-checks the synthesizer itself on a
// single known case: [x = y]♭(var(x)) must denote param(x) ∧ var(y).
func TestSynthesizedWPIsPrecondition(t *testing.T) {
	a := newTestAnalysis(FileProperty())
	u := formula.NewUniverse(Theory{})
	desc := meta.Descriptor[uset.Set, State]{
		Describe: func(p uset.Set, d State) formula.Conj { return a.describe(u, p, d) },
		Eval:     func(l formula.Lit, p uset.Set, d State) bool { return client.EvalLit(a, l, p, d) },
	}
	atom := lang.Move{Dst: "x", Src: "y"}
	synth := meta.SynthesizeWP(
		atom, PVar{"x"},
		func(p uset.Set, d State) State { return dataflow.At(a.Step, p)(atom, d) },
		desc, a.AllAbstractions(), a.AllStates(),
	)
	want := formula.ToDNF(formula.And(formula.L(PParam{"x"}), formula.L(PVar{"y"})), u)
	for _, p := range a.AllAbstractions() {
		for _, d := range a.AllStates() {
			ev := func(l formula.Lit) bool { return client.EvalLit(a, l, p, d) }
			if synth.Eval(ev) != want.Eval(ev) {
				t.Fatalf("synthesized %s disagrees with param(x)∧var(y) at p=%v d=%s", synth, p, a.Format(d))
			}
		}
	}
}
