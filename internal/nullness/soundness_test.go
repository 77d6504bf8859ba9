package nullness

import (
	"math/rand"
	"testing"

	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/oracle/gen"
	"tracer/internal/uset"
)

// newTestAnalysis builds a small universe: locals u, v; field f. The
// domain has 3^3 = 27 states and 2^3 = 8 abstractions (one parameter per
// cell).
func newTestAnalysis() *Analysis {
	return New([]string{"u", "v"}, []string{"f"})
}

// testAtoms returns the full atom pool over the test universe — the oracle
// generator's cross product (see internal/oracle/gen), shared with the
// fuzzing harness.
func testAtoms() []lang.Atom {
	return gen.Pool(gen.Universe{
		Vars:    []string{"u", "v"},
		Sites:   []string{"h1", "h2"},
		Fields:  []string{"f"},
		Globals: []string{"G"},
		Methods: []string{"m"},
	})
}

func primsFor(a *Analysis) []formula.Prim {
	var prims []formula.Prim
	for i := 0; i < a.Locals.Len(); i++ {
		v := a.Locals.Value(i)
		prims = append(prims, PTrackVar{v, true}, PTrackVar{v, false})
		for _, o := range Values {
			prims = append(prims, PVar{v, o})
		}
	}
	for i := 0; i < a.Fields.Len(); i++ {
		f := a.Fields.Value(i)
		prims = append(prims, PTrackField{f, true}, PTrackField{f, false})
		for _, o := range Values {
			prims = append(prims, PField{f, o})
		}
	}
	return prims
}

// TestWPRequirement2 exhaustively verifies requirement (2) of §4 for every
// (atom, primitive) pair: [a]♭ must be the exact weakest precondition of
// the forward transfer functions.
func TestWPRequirement2(t *testing.T) {
	a := newTestAnalysis()
	u := formula.NewUniverse(Theory{})
	abstractions := a.AllAbstractions()
	states := a.AllStates()
	for _, atom := range testAtoms() {
		for _, prim := range primsFor(a) {
			bad := meta.CheckWP(
				atom, prim, a.WP, u,
				abstractions, states,
				func(p uset.Set, d State) State { return a.step(p, atom, d) },
				func(l formula.Lit, p uset.Set, d State) bool { return a.EvalLit(l, p, d) },
			)
			if len(bad) != 0 {
				pi, di := bad[0][0], bad[0][1]
				t.Errorf("[%s]♭(%s) wrong at p=%v d=%s (%d violations)",
					atom, prim, abstractions[pi], a.Format(states[di]), len(bad))
			}
		}
	}
}

// TestNegLitPartitions checks that for every primitive, the literal and
// the disjunction of its theory-expanded negation alternatives partition
// the (p, d) universe.
func TestNegLitPartitions(t *testing.T) {
	a := newTestAnalysis()
	th := Theory{}
	for _, prim := range primsFor(a) {
		l := formula.Lit{P: prim}
		alts, ok := th.NegLit(l)
		if !ok {
			t.Fatalf("NegLit(%s) not handled", l)
		}
		for _, p := range a.AllAbstractions() {
			for _, d := range a.AllStates() {
				pos := a.EvalLit(l, p, d)
				neg := false
				for _, alt := range alts {
					if a.EvalLit(alt, p, d) {
						neg = true
						break
					}
				}
				if pos == neg {
					t.Fatalf("¬%s wrong at p=%v d=%s", l, p, a.Format(d))
				}
			}
		}
	}
}

// TestUntrackedNeverPrecise: an untracked cell can never hold a precise
// value after any update — the parameter is exactly what precision costs.
func TestUntrackedNeverPrecise(t *testing.T) {
	a := newTestAnalysis()
	atoms := testAtoms()
	for _, p := range a.AllAbstractions() {
		for _, d := range a.AllStates() {
			for _, atom := range atoms {
				d2 := a.step(p, atom, d)
				for i := 0; i < a.NumParams(); i++ {
					if p.Has(i) || a.get(d2, i) == a.get(d, i) {
						continue
					}
					if a.get(d2, i) != U {
						t.Fatalf("%s updated untracked cell %s to %s in %s",
							atom, a.ParamName(i), a.get(d2, i), a.Format(d2))
					}
				}
			}
		}
	}
}

// TestTheorem3RandomTraces checks both clauses of Theorem 3 on random
// traces for several beam widths.
func TestTheorem3RandomTraces(t *testing.T) {
	a := newTestAnalysis()
	rng := rand.New(rand.NewSource(11))
	atoms := testAtoms()
	abstractions := a.AllAbstractions()
	states := a.AllStates()
	post := a.NotQ(Query{V: "u"})
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(6)
		tr := make(lang.Trace, n)
		for i := range tr {
			tr[i] = atoms[rng.Intn(len(atoms))]
		}
		p := abstractions[rng.Intn(len(abstractions))]
		dI := a.Initial()
		selfTr := a.Transfer(p)
		final := dataflow.EvalTrace(tr, dI, selfTr)
		failed := post.Eval(func(l formula.Lit) bool { return a.EvalLit(l, p, final) })
		for _, k := range []int{1, 3, 0} {
			client := &meta.Client[State]{
				WP:   a.WP,
				U:    formula.NewUniverse(Theory{}),
				Eval: func(l formula.Lit, d State) bool { return a.EvalLit(l, p, d) },
				K:    k,
			}
			c1, c2 := meta.CheckSoundness(
				client, tr, dI, post, failed,
				abstractions, states,
				func(p0 uset.Set) dataflow.Transfer[State] { return a.Transfer(p0) },
				func(p0 uset.Set) func(l formula.Lit, d State) bool {
					return func(l formula.Lit, d State) bool { return a.EvalLit(l, p0, d) }
				},
				selfTr,
			)
			if c1 != 0 {
				t.Fatalf("k=%d trace %q p=%v: clause 1 violated", k, tr, p)
			}
			if c2 != 0 {
				t.Fatalf("k=%d trace %q p=%v: clause 2 violated %d times", k, tr, p, c2)
			}
		}
	}
}
