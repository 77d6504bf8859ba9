package escape

import (
	"testing"

	"tracer/internal/client"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/meta"
	"tracer/internal/uset"
)

// describe characterizes (p, d) for the WP synthesizer: one site literal
// per site and one value literal per local and field. The conjunction
// interns its literals into u.
func (a *Analysis) describe(u *formula.Universe, p uset.Set, d State) formula.Conj {
	var lits []formula.Lit
	for i := 0; i < a.Sites.Len(); i++ {
		o := E
		if p.Has(i) {
			o = L
		}
		lits = append(lits, formula.Lit{P: PSite{a.Sites.Value(i), o}})
	}
	for i := 0; i < a.Locals.Len(); i++ {
		v := a.Locals.Value(i)
		lits = append(lits, formula.Lit{P: PLocal{v, a.Local(d, v)}})
	}
	for i := 0; i < a.Fields.Len(); i++ {
		f := a.Fields.Value(i)
		lits = append(lits, formula.Lit{P: PField{f, a.Field(d, f)}})
	}
	return formula.NewConj(u, lits...)
}

// TestHandwrittenWPMatchesSynthesized cross-checks the Fig 11 transfer
// functions against the brute-force synthesized weakest preconditions on
// the full small universe. With 4 abstractions × 27 states per atom and
// primitive, this is the strongest possible finite check.
func TestHandwrittenWPMatchesSynthesized(t *testing.T) {
	a := newTestAnalysis()
	u := formula.NewUniverse(Theory{})
	desc := meta.Descriptor[uset.Set, State]{
		Describe: func(p uset.Set, d State) formula.Conj { return a.describe(u, p, d) },
		Eval:     func(l formula.Lit, p uset.Set, d State) bool { return client.EvalLit(a, l, p, d) },
	}
	abstractions := a.AllAbstractions()
	states := a.AllStates()
	for _, atom := range testAtoms() {
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
