package formula

import (
	"math/rand"
	"strings"
	"testing"
)

// mockPrim is a tiny primitive theory for testing: variables b0..bN-1 over
// booleans, where an environment is a bitmask.
type mockPrim struct{ V int }

func (p mockPrim) Key() string    { return "b" + string(rune('0'+p.V)) }
func (p mockPrim) String() string { return p.Key() }

// mockTheory has no entailments or contradictions beyond the syntactic
// ones, like the thread-escape theory's fast checker.
type mockTheory struct{}

func (mockTheory) NegLit(l Lit) ([]Lit, bool) { return nil, false }
func (mockTheory) Implies(a, b Lit) bool      { return a == b }
func (mockTheory) Contradicts(a, b Lit) bool  { return false }

func lit(v int, neg bool) Lit { return Lit{P: mockPrim{v}, Neg: neg} }

// newU builds a fresh interning universe for one test (or one trial).
func newU() *Universe { return NewUniverse(mockTheory{}) }

// evalEnv evaluates a literal against a bitmask environment.
func evalEnv(env uint) func(Lit) bool {
	return func(l Lit) bool {
		val := env&(1<<uint(l.P.(mockPrim).V)) != 0
		if l.Neg {
			return !val
		}
		return val
	}
}

// randFormula builds a random formula over nv variables.
func randFormula(rng *rand.Rand, nv, depth int) Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		return FromLit(lit(rng.Intn(nv), rng.Intn(2) == 0))
	}
	switch rng.Intn(5) {
	case 0:
		return Not(randFormula(rng, nv, depth-1))
	case 1:
		return True()
	case 2:
		return False()
	case 3:
		return And(randFormula(rng, nv, depth-1), randFormula(rng, nv, depth-1))
	default:
		return Or(randFormula(rng, nv, depth-1), randFormula(rng, nv, depth-1))
	}
}

// TestToDNFEquivalence: ToDNF preserves semantics on random formulas over
// all environments.
func TestToDNFEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nv = 4
	u := newU()
	for trial := 0; trial < 500; trial++ {
		f := randFormula(rng, nv, 4)
		d := ToDNF(f, u)
		for env := uint(0); env < 1<<nv; env++ {
			if f.Eval(evalEnv(env)) != d.Eval(evalEnv(env)) {
				t.Fatalf("ToDNF changed semantics of %s at env %b: dnf %s", f, env, d)
			}
		}
	}
}

// TestSimplifyEquivalence: Simplify preserves semantics.
func TestSimplifyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nv = 4
	u := newU()
	for trial := 0; trial < 500; trial++ {
		d := ToDNF(randFormula(rng, nv, 4), u)
		s := d.Simplify()
		if len(s) > len(d) {
			t.Fatalf("Simplify grew the formula: %d -> %d", len(d), len(s))
		}
		for env := uint(0); env < 1<<nv; env++ {
			if d.Eval(evalEnv(env)) != s.Eval(evalEnv(env)) {
				t.Fatalf("Simplify changed semantics of %s -> %s at env %b", d, s, env)
			}
		}
	}
}

// copyingDropK is DropK as it was before it returned prefixes of its
// input: every result is a fresh copy. TestDropKMatchesCopying checks the
// current DropK against it.
func copyingDropK(d DNF, k int, holds func(Conj) bool) DNF {
	if len(d) <= k {
		return d
	}
	keep := k - 1
	if keep < 0 {
		keep = 0
	}
	out := append(DNF{}, d[:keep]...)
	for _, c := range d {
		if holds(c) {
			dup := false
			for _, o := range out {
				if o.Equal(c) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, c)
			}
			return out
		}
	}
	return append(out, d[keep:k]...)
}

// TestDropKMatchesCopying: on random DNFs, some with repeated disjuncts, and
// random holds predicates, DropK returns the copying implementation's
// disjuncts in the same order, clips a shortened result's capacity, and
// never lets an append to its result change its input. One predicate
// answers by call count, so both sides must also ask in the same order.
func TestDropKMatchesCopying(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const nv = 5
	u := newU()
	for trial := 0; trial < 2000; trial++ {
		d := ToDNF(randFormula(rng, nv, 5), u)
		if rng.Intn(2) == 0 {
			d = d.Simplify()
		}
		if len(d) > 0 && rng.Intn(3) == 0 {
			d = append(d, d[rng.Intn(len(d))])
		}
		env := uint(rng.Intn(1 << nv))
		salt := rng.Uint64()
		nth := rng.Intn(len(d) + 2)
		preds := []func() func(Conj) bool{
			func() func(Conj) bool { return func(c Conj) bool { return c.Eval(evalEnv(env)) } },
			func() func(Conj) bool { return func(c Conj) bool { return (c.Hash()^salt)%3 == 0 } },
			func() func(Conj) bool {
				calls := 0
				return func(Conj) bool { calls++; return calls == nth }
			},
		}
		for pi, pred := range preds {
			for k := 0; k <= 4; k++ {
				in := append(DNF(nil), d...)
				want := copyingDropK(in, k, pred())
				got := in.DropK(k, pred())
				if !got.Equal(want) {
					t.Fatalf("trial %d pred %d k=%d: DropK(%s) = %s, copying = %s", trial, pi, k, in, got, want)
				}
				if len(in) > k && cap(got) != len(got) {
					t.Fatalf("trial %d pred %d k=%d: result has cap %d > len %d", trial, pi, k, cap(got), len(got))
				}
				_ = append(got, Conj{})
				if !in.Equal(d) {
					t.Fatalf("trial %d pred %d k=%d: appending to the result changed the input to %s, was %s", trial, pi, k, in, d)
				}
			}
		}
	}
}

// TestDropKUnderApproximates: DropK keeps a subset of disjuncts (so its
// denotation is contained in the input's) and, when some disjunct holds at
// the probe, retains one that holds.
func TestDropKUnderApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nv = 4
	u := newU()
	for trial := 0; trial < 500; trial++ {
		d := ToDNF(randFormula(rng, nv, 4), u).Simplify()
		env := uint(rng.Intn(1 << nv))
		holds := func(c Conj) bool { return c.Eval(evalEnv(env)) }
		for k := 1; k <= 3; k++ {
			got := d.DropK(k, holds)
			if len(got) > k {
				t.Fatalf("DropK(%d) kept %d disjuncts", k, len(got))
			}
			// Under-approximation: every kept disjunct appears in d.
			for _, c := range got {
				found := false
				for _, orig := range d {
					if orig.Key() == c.Key() {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("DropK invented disjunct %s", c)
				}
			}
			// Retention: if (p, d) ∈ δ(input) then (p, d) ∈ δ(output).
			if d.Eval(evalEnv(env)) && !got.Eval(evalEnv(env)) {
				t.Fatalf("DropK dropped the holding disjunct: %s -> %s at %b", d, got, env)
			}
		}
	}
}

// TestApproxContract checks both approx requirements of §4 together.
func TestApproxContract(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const nv = 4
	u := newU()
	for trial := 0; trial < 500; trial++ {
		f := randFormula(rng, nv, 4)
		env := uint(rng.Intn(1 << nv))
		holds := func(c Conj) bool { return c.Eval(evalEnv(env)) }
		for _, k := range []int{0, 1, 2, 5} {
			a := Approx(f, u, k, holds)
			for e := uint(0); e < 1<<nv; e++ {
				if a.Eval(evalEnv(e)) && !f.Eval(evalEnv(e)) {
					t.Fatalf("approx over-approximated %s -> %s at %b", f, a, e)
				}
			}
			if f.Eval(evalEnv(env)) && !a.Eval(evalEnv(env)) {
				t.Fatalf("approx lost the probe point: %s -> %s at %b", f, a, env)
			}
		}
	}
}

// TestConjCanonical: NewConj sorts, deduplicates, and keys canonically.
func TestConjCanonical(t *testing.T) {
	u := newU()
	c1 := NewConj(u, lit(2, false), lit(0, true), lit(2, false))
	c2 := NewConj(u, lit(0, true), lit(2, false))
	if c1.Key() != c2.Key() {
		t.Fatalf("keys differ: %q vs %q", c1.Key(), c2.Key())
	}
	if c1.Size() != 2 {
		t.Fatalf("dedup failed: %v", c1)
	}
	if c1.Hash() != c2.Hash() || !c1.Equal(c2) {
		t.Fatalf("canonical conjunctions disagree on hash/equality")
	}
}

// TestConjImplies: syntactic conjunction entailment.
func TestConjImplies(t *testing.T) {
	u := newU()
	ab := NewConj(u, lit(0, false), lit(1, false))
	a := NewConj(u, lit(0, false))
	if !ab.Implies(a) {
		t.Error("a∧b must imply a")
	}
	if a.Implies(ab) {
		t.Error("a must not imply a∧b")
	}
	empty := NewConj(u)
	if !a.Implies(empty) {
		t.Error("anything implies true")
	}
}

// TestAndOrPruneContradictions: And removes syntactic complements.
func TestAndOrPruneContradictions(t *testing.T) {
	u := newU()
	d1 := DNF{NewConj(u, lit(0, false))}
	d2 := DNF{NewConj(u, lit(0, true))}
	if got := d1.And(d2); !got.IsFalse() {
		t.Fatalf("b0 ∧ ¬b0 = %s, want false", got)
	}
	or := d1.Or(d2)
	if len(or) != 2 {
		t.Fatalf("or lost disjuncts: %s", or)
	}
}

// TestConstants: boolean constants behave.
func TestConstants(t *testing.T) {
	u := newU()
	if !DTrue().IsTrue() || DTrue().IsFalse() {
		t.Error("DTrue wrong")
	}
	if !DFalse().IsFalse() || DFalse().IsTrue() {
		t.Error("DFalse wrong")
	}
	if ToDNF(True(), u).IsFalse() {
		t.Error("ToDNF(true) is false")
	}
	if !ToDNF(Not(True()), u).IsFalse() {
		t.Error("ToDNF(¬true) is not false")
	}
	if !ToDNF(And(), u).IsTrue() || !ToDNF(Or(), u).IsFalse() {
		t.Error("empty And/Or wrong")
	}
}

// TestFormulaString: renders readably (used by examples and docs).
func TestFormulaString(t *testing.T) {
	f := Or(And(L(mockPrim{0}), NegL(mockPrim{1})), L(mockPrim{2}))
	s := f.String()
	for _, want := range []string{"b0", "¬b1", "b2", "∨", "∧"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if DFalse().String() != "false" {
		t.Errorf("false renders as %q", DFalse().String())
	}
}

// TestRetain keeps the selected literals in canonical order. Indices refer
// to the canonical (key-sorted) literal order of Lits().
func TestRetain(t *testing.T) {
	u := newU()
	c := NewConj(u, lit(0, false), lit(1, true), lit(2, false))
	drop := -1
	for i, l := range c.Lits() {
		if l == lit(1, true) {
			drop = i
		}
	}
	r := c.Retain(func(i int) bool { return i != drop })
	if r.Size() != 2 {
		t.Fatalf("Retain size = %d", r.Size())
	}
	if r.Key() != NewConj(u, lit(0, false), lit(2, false)).Key() {
		t.Fatalf("Retain key = %q", r.Key())
	}
}

// TestSingletonLit detects exactly single-literal DNFs.
func TestSingletonLit(t *testing.T) {
	u := newU()
	d := DNF{NewConj(u, lit(1, false))}
	if l, ok := d.SingletonLit(); !ok || l != lit(1, false) {
		t.Fatalf("SingletonLit = %v %v", l, ok)
	}
	if _, ok := DTrue().SingletonLit(); ok {
		t.Error("true is not a singleton literal")
	}
	if _, ok := (DNF{NewConj(u, lit(0, false), lit(1, false))}).SingletonLit(); ok {
		t.Error("two-literal conj is not a singleton literal")
	}
}

// TestNegLitExpansion: a theory-provided expansion is applied by ToDNF.
func TestNegLitExpansion(t *testing.T) {
	u := NewUniverse(expandTheory{})
	d := ToDNF(Not(L(mockPrim{0})), u)
	// expandTheory says ¬b0 ≡ b1 ∨ b2.
	if len(d) != 2 {
		t.Fatalf("expansion not applied: %s", d)
	}
}

type expandTheory struct{ mockTheory }

func (expandTheory) NegLit(l Lit) ([]Lit, bool) {
	if l.P.(mockPrim).V == 0 && !l.Neg {
		return []Lit{lit(1, false), lit(2, false)}, true
	}
	return nil, false
}

// TestUniverseStats: the universe exposes interning size and counter
// snapshots, and TakeStats drains the deltas.
func TestUniverseStats(t *testing.T) {
	u := newU()
	d1 := DNF{NewConj(u, lit(0, false), lit(1, false))}
	d2 := DNF{NewConj(u, lit(2, false))}
	_ = d1.And(d2).Simplify()
	s := u.Stats()
	if s.Size != 3 {
		t.Fatalf("universe size = %d, want 3", s.Size)
	}
	if s.CubeProducts == 0 {
		t.Fatalf("And did not count cube products: %+v", s)
	}
	taken := u.TakeStats()
	if taken.CubeProducts != s.CubeProducts {
		t.Fatalf("TakeStats delta %d, want %d", taken.CubeProducts, s.CubeProducts)
	}
	if after := u.Stats(); after.CubeProducts != 0 || after.Size != 3 {
		t.Fatalf("TakeStats must reset counters but keep size: %+v", after)
	}
}
