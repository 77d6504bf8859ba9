package formula_test

// Differential test of the interned integer/bitset DNF kernel against a
// direct transcription of the original string-keyed kernel. The reference
// engine below re-implements the pre-interning semantics literally —
// key-sorted literal lists, string-key merges, joined-key identities, the
// exact reduce/subsume tie-breaks, and Fig 8's toDNF/simplify/dropk order —
// and every kernel operation is required to agree with it on BOTH the
// denotation and the canonical (byte-identical) output order, over both
// production theories.

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tracer/internal/client"
	"tracer/internal/escape"
	"tracer/internal/formula"
	"tracer/internal/typestate"
)

// ---------------------------------------------------------------------------
// Reference engine: the seed string-keyed kernel, transcribed.

type refConj struct {
	lits []formula.Lit
	keys []string
	key  string
}

type refDNF []refConj

func refMk(lits []formula.Lit, keys []string) refConj {
	return refConj{lits: lits, keys: keys, key: strings.Join(keys, "&")}
}

func refNewConj(lits ...formula.Lit) refConj {
	ls := append([]formula.Lit(nil), lits...)
	keys := make([]string, len(ls))
	for i, l := range ls {
		keys[i] = l.Key()
	}
	sort.Sort(&refSorter{ls, keys})
	outL, outK := ls[:0], keys[:0]
	for i := range ls {
		if i > 0 && keys[i] == outK[len(outK)-1] {
			continue
		}
		outL = append(outL, ls[i])
		outK = append(outK, keys[i])
	}
	return refMk(outL, outK)
}

type refSorter struct {
	lits []formula.Lit
	keys []string
}

func (s *refSorter) Len() int           { return len(s.lits) }
func (s *refSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *refSorter) Swap(i, j int) {
	s.lits[i], s.lits[j] = s.lits[j], s.lits[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (c refConj) eval(ev func(formula.Lit) bool) bool {
	for _, l := range c.lits {
		if !ev(l) {
			return false
		}
	}
	return true
}

func (d refDNF) eval(ev func(formula.Lit) bool) bool {
	for _, c := range d {
		if c.eval(ev) {
			return true
		}
	}
	return false
}

func refMerge(c, d refConj) (lits []formula.Lit, keys []string) {
	i, j := 0, 0
	for i < len(c.lits) && j < len(d.lits) {
		switch {
		case c.keys[i] < d.keys[j]:
			lits, keys = append(lits, c.lits[i]), append(keys, c.keys[i])
			i++
		case c.keys[i] > d.keys[j]:
			lits, keys = append(lits, d.lits[j]), append(keys, d.keys[j])
			j++
		default:
			lits, keys = append(lits, c.lits[i]), append(keys, c.keys[i])
			i++
			j++
		}
	}
	for ; i < len(c.lits); i++ {
		lits, keys = append(lits, c.lits[i]), append(keys, c.keys[i])
	}
	for ; j < len(d.lits); j++ {
		lits, keys = append(lits, d.lits[j]), append(keys, d.keys[j])
	}
	return lits, keys
}

func refUnsat(lits []formula.Lit, th formula.Theory) bool {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			a, b := lits[i], lits[j]
			if a.Neg != b.Neg && a.P == b.P {
				return true
			}
			if th.Contradicts(a, b) || th.Contradicts(b, a) {
				return true
			}
		}
	}
	return false
}

func refReduce(lits []formula.Lit, keys []string, th formula.Theory) ([]formula.Lit, []string) {
	if len(lits) < 2 {
		return lits, keys
	}
	drop := make([]bool, len(lits))
	any := false
	for i, li := range lits {
		for j, lj := range lits {
			if i == j || keys[i] == keys[j] {
				continue
			}
			if th.Implies(lj, li) && (!th.Implies(li, lj) || j < i) {
				drop[i] = true
				any = true
				break
			}
		}
	}
	if !any {
		return lits, keys
	}
	var outL []formula.Lit
	var outK []string
	for i := range lits {
		if !drop[i] {
			outL = append(outL, lits[i])
			outK = append(outK, keys[i])
		}
	}
	return outL, outK
}

func refImplies(c, d refConj, th formula.Theory) bool {
	for j, ld := range d.lits {
		ok := false
		for i, lc := range c.lits {
			if c.keys[i] == d.keys[j] || th.Implies(lc, ld) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func refOr(d, e refDNF, th formula.Theory) refDNF {
	out := make(refDNF, 0, len(d)+len(e))
	seen := make(map[string]bool)
	for _, c := range append(append(refDNF{}, d...), e...) {
		if refUnsat(c.lits, th) {
			continue
		}
		lits, keys := refReduce(c.lits, c.keys, th)
		if len(lits) != len(c.lits) {
			c = refMk(lits, keys)
		}
		if seen[c.key] {
			continue
		}
		seen[c.key] = true
		out = append(out, c)
	}
	return out
}

func refAnd(d, e refDNF, th formula.Theory) refDNF {
	var out refDNF
	seen := make(map[string]bool)
	for _, c1 := range d {
		for _, c2 := range e {
			lits, keys := refMerge(c1, c2)
			if refUnsat(lits, th) {
				continue
			}
			lits, keys = refReduce(lits, keys, th)
			c := refMk(lits, keys)
			if seen[c.key] {
				continue
			}
			seen[c.key] = true
			out = append(out, c)
		}
	}
	return out
}

func refSortBySize(d refDNF) refDNF {
	out := append(refDNF{}, d...)
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].lits) != len(out[j].lits) {
			return len(out[i].lits) < len(out[j].lits)
		}
		return out[i].key < out[j].key
	})
	return out
}

func refSimplify(d refDNF, th formula.Theory) refDNF {
	sorted := refSortBySize(d)
	var out refDNF
	for _, c := range sorted {
		redundant := false
		for _, kept := range out {
			if refImplies(c, kept, th) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, c)
		}
	}
	return out
}

func refDropK(d refDNF, k int, holds func(refConj) bool) refDNF {
	if len(d) <= k {
		return d
	}
	keep := k - 1
	if keep < 0 {
		keep = 0
	}
	out := append(refDNF{}, d[:keep]...)
	for _, c := range d {
		if holds(c) {
			dup := false
			for _, o := range out {
				if o.key == c.key {
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

func refApprox(d refDNF, th formula.Theory, k int, holds func(refConj) bool) refDNF {
	d = refSimplify(d, th)
	if k <= 0 || len(d) <= k {
		return d
	}
	return refDropK(d, k, holds)
}

// ---------------------------------------------------------------------------
// Mirror AST: the same random formula built for both engines, with the
// constructor folds of formula.And/Or/Not replicated so both toDNF passes
// walk an identical structure.

type refF struct {
	kind byte // 't' true, 'f' false, 'l' lit, 'n' not, 'a' and, 'o' or
	lit  formula.Lit
	subs []refF
}

func refNot(f refF) refF {
	switch f.kind {
	case 't':
		return refF{kind: 'f'}
	case 'f':
		return refF{kind: 't'}
	case 'n':
		return f.subs[0]
	case 'l':
		return refF{kind: 'l', lit: f.lit.Negate()}
	}
	return refF{kind: 'n', subs: []refF{f}}
}

func refAndF(fs ...refF) refF {
	var subs []refF
	for _, f := range fs {
		switch f.kind {
		case 't':
			continue
		case 'f':
			return refF{kind: 'f'}
		case 'a':
			subs = append(subs, f.subs...)
		default:
			subs = append(subs, f)
		}
	}
	switch len(subs) {
	case 0:
		return refF{kind: 't'}
	case 1:
		return subs[0]
	}
	return refF{kind: 'a', subs: subs}
}

func refOrF(fs ...refF) refF {
	var subs []refF
	for _, f := range fs {
		switch f.kind {
		case 'f':
			continue
		case 't':
			return refF{kind: 't'}
		case 'o':
			subs = append(subs, f.subs...)
		default:
			subs = append(subs, f)
		}
	}
	switch len(subs) {
	case 0:
		return refF{kind: 'f'}
	case 1:
		return subs[0]
	}
	return refF{kind: 'o', subs: subs}
}

func refToDNF(f refF, neg bool, th formula.Theory) refDNF {
	switch f.kind {
	case 't':
		if neg {
			return nil
		}
		return refDNF{refConj{}}
	case 'f':
		if neg {
			return refDNF{refConj{}}
		}
		return nil
	case 'n':
		return refToDNF(f.subs[0], !neg, th)
	case 'l':
		l := f.lit
		if neg {
			l = l.Negate()
		}
		if l.Neg {
			if alts, ok := th.NegLit(l.Negate()); ok {
				out := make(refDNF, 0, len(alts))
				for _, a := range alts {
					out = append(out, refNewConj(a))
				}
				return out
			}
		}
		return refDNF{refNewConj(l)}
	case 'a', 'o':
		isAnd := f.kind == 'a'
		if neg {
			isAnd = !isAnd
		}
		if isAnd {
			out := refDNF{refConj{}}
			for _, s := range f.subs {
				out = refAnd(out, refToDNF(s, neg, th), th)
				if len(out) == 0 {
					return out
				}
			}
			return out
		}
		var out refDNF
		for _, s := range f.subs {
			out = refOr(out, refToDNF(s, neg, th), th)
		}
		return out
	}
	panic("refToDNF: bad kind")
}

// genBoth builds one random formula simultaneously as a production Formula
// and as the mirror AST, applying identical constructor folds.
func genBoth(rng *rand.Rand, pool []formula.Lit, depth int) (formula.Formula, refF) {
	if depth == 0 || rng.Intn(4) == 0 {
		l := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			l = l.Negate()
		}
		return formula.FromLit(l), refF{kind: 'l', lit: l}
	}
	switch rng.Intn(5) {
	case 0:
		g, r := genBoth(rng, pool, depth-1)
		return formula.Not(g), refNot(r)
	case 1:
		return formula.True(), refF{kind: 't'}
	case 2:
		return formula.False(), refF{kind: 'f'}
	case 3:
		g1, r1 := genBoth(rng, pool, depth-1)
		g2, r2 := genBoth(rng, pool, depth-1)
		return formula.And(g1, g2), refAndF(r1, r2)
	default:
		g1, r1 := genBoth(rng, pool, depth-1)
		g2, r2 := genBoth(rng, pool, depth-1)
		return formula.Or(g1, g2), refOrF(r1, r2)
	}
}

// ---------------------------------------------------------------------------
// The differential harness.

// sameDNF requires byte-identical canonical order (disjunct keys, in order)
// and, as a belt-and-braces check, the same denotation at the supplied
// theory-consistent valuations.
func sameDNF(t *testing.T, op string, got formula.DNF, want refDNF, evs []func(formula.Lit) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d disjuncts, reference has %d\n got: %s\nwant: %s",
			op, len(got), len(want), got, refString(want))
	}
	for i := range got {
		if got[i].Key() != want[i].key {
			t.Fatalf("%s: disjunct %d key %q, reference %q\n got: %s\nwant: %s",
				op, i, got[i].Key(), want[i].key, got, refString(want))
		}
	}
	for _, ev := range evs {
		if got.Eval(ev) != want.eval(ev) {
			t.Fatalf("%s: denotations differ at a valuation\n got: %s\nwant: %s",
				op, got, refString(want))
		}
	}
}

func refString(d refDNF) string {
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = c.key
	}
	return strings.Join(parts, " | ")
}

// runDifferential drives trials random formulas over one theory and checks
// every kernel operation against the reference.
func runDifferential(t *testing.T, th formula.Theory, pool []formula.Lit,
	evs []func(formula.Lit) bool, seed int64, trials int) {
	rng := rand.New(rand.NewSource(seed))
	u := formula.NewUniverse(th)
	for trial := 0; trial < trials; trial++ {
		f1, r1 := genBoth(rng, pool, 4)
		f2, r2 := genBoth(rng, pool, 3)

		d1 := formula.ToDNF(f1, u)
		w1 := refSortBySize(refToDNF(r1, false, th))
		sameDNF(t, "ToDNF", d1, w1, evs)

		d2 := formula.ToDNF(f2, u)
		w2 := refSortBySize(refToDNF(r2, false, th))
		sameDNF(t, "ToDNF(2)", d2, w2, evs)

		sameDNF(t, "And", d1.And(d2), refAnd(w1, w2, th), evs)
		sameDNF(t, "Or", d1.Or(d2), refOr(w1, w2, th), evs)
		sameDNF(t, "Simplify", d1.Simplify(), refSimplify(w1, th), evs)

		ev := evs[rng.Intn(len(evs))]
		holds := func(c formula.Conj) bool { return c.Eval(ev) }
		holdsRef := func(c refConj) bool { return c.eval(ev) }
		for _, k := range []int{0, 1, 3} {
			sameDNF(t, "Approx",
				formula.Approx(f1, u, k, holds),
				refApprox(refSortBySize(refToDNF(r1, false, th)), th, k, holdsRef),
				evs)
		}
	}
}

// TestDifferentialTypestate: the interned kernel matches the string-keyed
// reference over the type-state theory (signed literals, err/type/var
// entailments and contradictions).
func TestDifferentialTypestate(t *testing.T) {
	prop := typestate.FileProperty()
	a := typestate.New(prop, "h", []string{"x", "y"})
	var pool []formula.Lit
	pool = append(pool, formula.Lit{P: typestate.PErr{}})
	for _, v := range []string{"x", "y"} {
		pool = append(pool,
			formula.Lit{P: typestate.PParam{X: v}},
			formula.Lit{P: typestate.PVar{X: v}})
	}
	for s, name := range prop.States {
		pool = append(pool, formula.Lit{P: typestate.PType{S: s, Name: name}})
	}
	var evs []func(formula.Lit) bool
	for _, p := range a.AllAbstractions() {
		for _, d := range a.AllStates() {
			p, d := p, d
			evs = append(evs, func(l formula.Lit) bool { return client.EvalLit(a, l, p, d) })
		}
	}
	runDifferential(t, typestate.Theory{}, pool, evs, 101, 300)
}

// TestDifferentialEscape: the interned kernel matches the string-keyed
// reference over the thread-escape theory, whose NegLit expansion rewrites
// every negated literal into positive alternatives.
func TestDifferentialEscape(t *testing.T) {
	a := escape.New([]string{"u", "v"}, []string{"f"}, []string{"h1", "h2"})
	var pool []formula.Lit
	for _, h := range []string{"h1", "h2"} {
		pool = append(pool,
			formula.Lit{P: escape.PSite{H: h, O: escape.L}},
			formula.Lit{P: escape.PSite{H: h, O: escape.E}})
	}
	for _, v := range []string{"u", "v"} {
		for _, o := range escape.Values {
			pool = append(pool, formula.Lit{P: escape.PLocal{V: v, O: o}})
		}
	}
	for _, o := range escape.Values {
		pool = append(pool, formula.Lit{P: escape.PField{F: "f", O: o}})
	}
	var evs []func(formula.Lit) bool
	for _, p := range a.AllAbstractions() {
		for _, d := range a.AllStates() {
			p, d := p, d
			evs = append(evs, func(l formula.Lit) bool { return client.EvalLit(a, l, p, d) })
		}
	}
	runDifferential(t, escape.Theory{}, pool, evs, 202, 300)
}
