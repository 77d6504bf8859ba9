// Package formula implements the generic boolean-formula machinery of the
// backward meta-analysis (§4.1 of the paper). Formulas are built over
// analysis-specific primitive formulas (Fig 9 for type-state, the h.o/v.o/f.o
// primitives for thread-escape); the package provides the DNF representation
// and the toDNF, simplify, and dropk operations of Fig 8, combined into the
// generic under-approximation operator approx.
//
// The kernel runs on interned literals: a per-analysis Universe maps each
// Lit to a dense uint32 ID and memoizes the theory relations as bitset rows,
// so the hot operations work on sorted integer slices and 64-bit hashes
// rather than joined string keys. A DNF/Conj remembers its Universe; only
// formulas built against the same Universe may be combined.
package formula

import (
	"sort"
	"strings"

	"tracer/internal/uset"
)

// Prim is a primitive formula. Implementations must be immutable values; Key
// must uniquely identify the primitive within its theory.
type Prim interface {
	Key() string
	String() string
}

// Lit is a possibly negated primitive formula.
type Lit struct {
	P   Prim
	Neg bool
}

// Key returns a canonical identity for the literal. Hot paths avoid calling
// it repeatedly: a Universe interns each distinct key to a dense ID once.
func (l Lit) Key() string {
	if l.Neg {
		return "!" + l.P.Key()
	}
	return l.P.Key()
}

func (l Lit) String() string {
	if l.Neg {
		return "¬" + l.P.String()
	}
	return l.P.String()
}

// Negate returns the literal with flipped sign.
func (l Lit) Negate() Lit { return Lit{l.P, !l.Neg} }

// Theory supplies the analysis-specific reasoning the generic machinery
// needs: how to negate a literal, when one literal entails another (used by
// simplify, the ⪯ of Figs 9/11), and when two literals are mutually
// exclusive (used to prune unsatisfiable disjuncts). Implies and Contradicts
// are consulted through a Universe's memo rows, at most once per literal
// pair per universe.
type Theory interface {
	// NegLit rewrites the negation of a positive literal l into an
	// equivalent disjunction of positive literals (e.g. ¬v.L ≡ v.E ∨ v.N for
	// thread-escape). It returns ok=false when the theory keeps signed
	// literals instead.
	NegLit(l Lit) (alts []Lit, ok bool)
	// Implies reports whether δ(a) ⊆ δ(b).
	Implies(a, b Lit) bool
	// Contradicts reports whether δ(a) ∩ δ(b) = ∅. It may be incomplete
	// (returning false is always safe).
	Contradicts(a, b Lit) bool
}

// Conj is a conjunction of literals, stored as interned IDs sorted by
// literal key and deduplicated, with a precomputed hash — entailment,
// contradiction, and deduplication checks are the meta-analysis's hottest
// paths and never touch strings. The zero Conj is true.
type Conj struct {
	u    *Universe
	ids  []uint32 // canonical (key-sorted, deduplicated) literal IDs
	hash uint64   // FNV-1a over ids; 0 for the empty conjunction
	sig  uint64   // presence signature: OR of 1<<(id&63) over ids
}

// NewConj builds a canonical conjunction from literals, interning them into
// u (which must be non-nil when lits is non-empty).
func NewConj(u *Universe, lits ...Lit) Conj {
	if len(lits) == 0 {
		return Conj{}
	}
	ids := make([]uint32, len(lits))
	for i, l := range lits {
		ids[i] = u.LitID(l)
	}
	rank := u.view.Load().rank
	sort.Slice(ids, func(i, j int) bool { return rank[ids[i]] < rank[ids[j]] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return mkConj(u, out)
}

// mkConj finalizes a canonical (sorted, deduplicated) id list, computing the
// identity hash and the presence signature in one pass. The signature maps
// each id to bit id&63, so it is stable as the universe grows: a set bit
// means "some literal with this residue is present", and superset tests on
// signatures are a sound necessary condition for subsumption.
func mkConj(u *Universe, ids []uint32) Conj {
	if len(ids) == 0 {
		return Conj{}
	}
	h := uint64(fnvOffset)
	var sig uint64
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime
		sig |= 1 << (id & 63)
	}
	return Conj{u: u, ids: ids, hash: h, sig: sig}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IDs returns the interned literal IDs in canonical order. The result must
// not be mutated.
func (c Conj) IDs() []uint32 { return c.ids }

// Hash returns the conjunction's precomputed identity hash.
func (c Conj) Hash() uint64 { return c.hash }

// Equal reports whether c and d are the same canonical conjunction.
func (c Conj) Equal(d Conj) bool { return c.hash == d.hash && equalIDs(c.ids, d.ids) }

// Fingerprint returns an order-sensitive 64-bit fingerprint of d for memo
// keys; pair it with Equal to resolve collisions.
func (d DNF) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	for _, c := range d {
		h ^= c.hash
		h *= fnvPrime
	}
	return h
}

// Equal reports whether d and e are structurally identical: the same cubes
// in the same order. DNF construction is deterministic, so structural
// equality is the right identity for memoizing DNF-valued functions.
func (d DNF) Equal(e DNF) bool {
	if len(d) != len(e) {
		return false
	}
	for i := range d {
		if d[i].hash != e[i].hash || !equalIDs(d[i].ids, e[i].ids) {
			return false
		}
	}
	return true
}

// Retain returns the sub-conjunction of literals at indices where keep is
// true, preserving canonical order.
func (c Conj) Retain(keep func(i int) bool) Conj {
	ids := make([]uint32, 0, len(c.ids))
	for i := range c.ids {
		if keep(i) {
			ids = append(ids, c.ids[i])
		}
	}
	return mkConj(c.u, ids)
}

// SingletonLit reports whether the DNF is exactly one single-literal
// disjunct and returns that literal; the meta-analysis uses it to detect
// identity weakest preconditions.
func (d DNF) SingletonLit() (Lit, bool) {
	if len(d) == 1 && len(d[0].ids) == 1 {
		return d[0].u.Lit(d[0].ids[0]), true
	}
	return Lit{}, false
}

// Lits returns the representative literals in canonical order.
func (c Conj) Lits() []Lit {
	if len(c.ids) == 0 {
		return nil
	}
	v := c.u.view.Load()
	out := make([]Lit, len(c.ids))
	for i, id := range c.ids {
		out[i] = v.lits[id]
	}
	return out
}

// Size is the syntactic size of the conjunction (its literal count).
func (c Conj) Size() int { return len(c.ids) }

// Key returns a canonical identity for the conjunction, materialized lazily
// (debug/API paths; the kernel itself identifies conjunctions by hash+ids).
func (c Conj) Key() string {
	if len(c.ids) == 0 {
		return ""
	}
	return c.u.view.Load().joined(c.ids)
}

func (c Conj) String() string {
	if len(c.ids) == 0 {
		return "true"
	}
	lits := c.Lits()
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = l.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Eval evaluates the conjunction under a literal valuation.
func (c Conj) Eval(eval func(Lit) bool) bool {
	if len(c.ids) == 0 {
		return true
	}
	v := c.u.view.Load()
	for _, id := range c.ids {
		if !eval(v.lits[id]) {
			return false
		}
	}
	return true
}

// maskOf builds a bitset of the given ids, reusing buf when wide enough so
// the common case stays on the caller's stack.
func maskOf(buf []uint64, ids []uint32) uset.Words {
	max := uint32(0)
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	w := int(max>>6) + 1
	var m uset.Words
	if w <= len(buf) {
		m = uset.Words(buf[:w])
		for i := range m {
			m[i] = 0
		}
	} else {
		m = make(uset.Words, w)
	}
	for _, id := range ids {
		m.SetBit(id)
	}
	return m
}

// unsatIDs reports whether a canonical id list contains two contradictory
// literals (syntactic complement or theory contradiction). Each literal's
// contradiction-memo row is intersected against the mask of literals already
// admitted, so the theory is never re-consulted on the hot path.
func unsatIDs(u *Universe, v *uview, ids []uint32) bool {
	max := ids[0]
	for _, id := range ids[1:] {
		if id > max {
			max = id
		}
	}
	w := int(max>>6) + 1
	var buf [8]uint64
	var mask uset.Words
	if w <= len(buf) {
		mask = uset.Words(buf[:w])
	} else {
		mask = make(uset.Words, w)
	}
	mask.SetBit(ids[0])
	var hits int64
	unsat := false
	for _, id := range ids[1:] {
		if u.conRowBatch(v, id, &hits).Intersects(mask) {
			unsat = true
			break
		}
		mask.SetBit(id)
	}
	if hits > 0 {
		u.memoHits.Add(hits)
	}
	return unsat
}

// reduceIDs drops literals entailed by another literal of the list (e.g.
// type(σ) entails ¬err in the type-state theory), keeping one representative
// of equivalent literals with the seed kernel's tie-break (the earlier
// literal wins). Returns the input slice unchanged when nothing drops.
func reduceIDs(u *Universe, v *uview, ids []uint32) []uint32 {
	n := len(ids)
	out := ids
	removed := 0
	var hits int64
	for i := 0; i < n; i++ {
		li := ids[i]
		// {a : a entails li}; the diagonal bit is i itself
		ri := u.impRowBatch(v, li, &hits)
		dropI := false
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			lj := ids[j]
			if ri.Has(lj) && (j < i || !u.impRowBatch(v, lj, &hits).Has(li)) {
				dropI = true
				break
			}
		}
		if dropI {
			if removed == 0 {
				out = append(make([]uint32, 0, n-1), ids[:i]...)
			}
			removed++
		} else if removed > 0 {
			out = append(out, ids[i])
		}
	}
	if hits > 0 {
		u.memoHits.Add(hits)
	}
	return out
}

// mergeIDs merges two canonically sorted id lists into dst[:0],
// deduplicating; rank is the universe's key order, so the result is canonical
// again. And passes a reusable scratch buffer as dst — most products die in
// the unsat/duplicate filters, so the merge result is copied out only for
// the few that survive.
func mergeIDs(dst []uint32, rank []int32, a, b []uint32) []uint32 {
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x == y:
			out = append(out, x)
			i++
			j++
		case rank[x] < rank[y]:
			out = append(out, x)
			i++
		default:
			out = append(out, y)
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// crossUnsat reports whether some literal of ids2 contradicts a literal of
// the cube whose ids are set in mask1. When both operand cubes of a product
// are internally contradiction-free — which prepAndSides established for
// every non-skipped And operand — a contradictory pair in the merged cube
// must be a cross pair, so this scan is equivalent to the full pairwise scan
// over the merged id list while loading only len(ids2) memo rows and running
// before the merge is materialized. A literal shared by both sides is
// excluded from its own row test: the merged cube contains it once, and the
// pairwise scan never tested a literal against itself.
func crossUnsat(u *Universe, v *uview, mask1 uset.Words, ids2 []uint32) bool {
	var hits int64
	unsat := false
	for _, b := range ids2 {
		row := u.conRowBatch(v, b, &hits)
		if !row.Intersects(mask1) {
			continue
		}
		if mask1.Has(b) && row.Has(b) {
			// Shared literal whose row has its own diagonal bit (a theory
			// self-contradiction): re-test without it.
			mask1.ClearBit(b)
			hit := row.Intersects(mask1)
			mask1.SetBit(b)
			if !hit {
				continue
			}
		}
		unsat = true
		break
	}
	if hits > 0 {
		u.memoHits.Add(hits)
	}
	return unsat
}

// impliesMask reports whether every literal of d is entailed by some literal
// in mask (a bitset of the antecedent conjunction's ids).
func impliesMask(u *Universe, v *uview, mask uset.Words, d []uint32) bool {
	var hits int64
	ok := true
	for _, ld := range d {
		if !u.impRowBatch(v, ld, &hits).Intersects(mask) {
			ok = false
			break
		}
	}
	if hits > 0 {
		u.memoHits.Add(hits)
	}
	return ok
}

// Implies reports whether c entails d: every literal of d is entailed by
// some literal of c. This is the fast, incomplete entailment check of
// Figs 9/11 (f ⪯ f'), answered from the universe's entailment rows.
func (c Conj) Implies(d Conj) bool {
	if len(d.ids) == 0 {
		return true
	}
	if len(c.ids) == 0 {
		return false
	}
	u := c.u
	v := u.view.Load()
	var buf [8]uint64
	return impliesMask(u, v, maskOf(buf[:], c.ids), d.ids)
}

// ConjSet is a deduplication set of canonical conjunctions, keyed by the
// precomputed hash with an id-slice check on collisions. The zero value is
// ready to use. Not safe for concurrent use.
//
// Small sets — the overwhelming majority under dropk-bounded DNF widths —
// stay in an inline linear array, so they cost no allocation at all. Larger
// sets move to an open-addressed index table over an insertion-order element
// slice: the table holds 4-byte indices (zero meaning empty, so a freshly
// zeroed table needs no -1 fill pass), which keeps escalation and doubling
// an order of magnitude lighter than a table of inline Conj slots or a Go
// map with a per-bucket slice behind every distinct hash.
type ConjSet struct {
	n     int
	small [conjSetSmallMax]Conj
	elems []Conj  // insertion order
	slots []int32 // linear probing; len is a power of two; value = elem index + 1
}

const conjSetSmallMax = 16

// Add inserts c and reports whether it was absent.
func (s *ConjSet) Add(c Conj) bool {
	if s.slots == nil {
		for _, o := range s.small[:s.n] {
			if o.hash == c.hash && equalIDs(o.ids, c.ids) {
				return false
			}
		}
		if s.n < conjSetSmallMax {
			s.small[s.n] = c
			s.n++
			return true
		}
		s.elems = append(make([]Conj, 0, 2*conjSetSmallMax), s.small[:s.n]...)
		s.n = 0
		s.rebuild(4 * conjSetSmallMax)
	}
	if s.lookup(c) {
		return false
	}
	if 2*(len(s.elems)+1) > len(s.slots) { // keep load factor under 1/2
		s.rebuild(2 * len(s.slots))
	}
	s.elems = append(s.elems, c)
	s.place(int32(len(s.elems)))
	return true
}

// Has reports whether c is present.
func (s *ConjSet) Has(c Conj) bool {
	if s.slots == nil {
		for _, o := range s.small[:s.n] {
			if o.hash == c.hash && equalIDs(o.ids, c.ids) {
				return true
			}
		}
		return false
	}
	return s.lookup(c)
}

func (s *ConjSet) lookup(c Conj) bool {
	mask := uint64(len(s.slots) - 1)
	for i := c.hash & mask; ; i = (i + 1) & mask {
		ei := s.slots[i]
		if ei == 0 {
			return false
		}
		o := &s.elems[ei-1]
		if o.hash == c.hash && equalIDs(o.ids, c.ids) {
			return true
		}
	}
}

// place writes the 1-based element index into its probe slot; the
// load-factor bound guarantees a free slot exists.
func (s *ConjSet) place(ei int32) {
	mask := uint64(len(s.slots) - 1)
	i := s.elems[ei-1].hash & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = ei
}

func (s *ConjSet) rebuild(n int) {
	s.slots = make([]int32, n)
	for i := range s.elems {
		s.place(int32(i + 1))
	}
}

// DNF is a disjunction of conjunctions. nil is false; a DNF containing an
// empty Conj is true (once simplified).
type DNF []Conj

// DTrue and DFalse are the boolean constants in DNF form.
func DTrue() DNF  { return DNF{Conj{}} }
func DFalse() DNF { return nil }

// IsFalse reports whether the DNF has no disjuncts.
func (d DNF) IsFalse() bool { return len(d) == 0 }

// IsTrue reports whether some disjunct is the empty conjunction.
func (d DNF) IsTrue() bool {
	for _, c := range d {
		if c.Size() == 0 {
			return true
		}
	}
	return false
}

// Size is the total syntactic size.
func (d DNF) Size() int {
	n := 0
	for _, c := range d {
		n += c.Size()
	}
	return n
}

func (d DNF) String() string {
	if len(d) == 0 {
		return "false"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		if len(d) > 1 && c.Size() > 1 {
			parts[i] = "(" + c.String() + ")"
		} else {
			parts[i] = c.String()
		}
	}
	return strings.Join(parts, " ∨ ")
}

// Eval evaluates the DNF under a literal valuation.
func (d DNF) Eval(eval func(Lit) bool) bool {
	for _, c := range d {
		if c.Eval(eval) {
			return true
		}
	}
	return false
}

// universe returns the Universe the DNF's conjunctions were built against
// (nil only when every disjunct is the empty conjunction, where no theory
// reasoning is needed).
func (d DNF) universe() *Universe {
	for _, c := range d {
		if c.u != nil {
			return c.u
		}
	}
	return nil
}

// Or returns the disjunction d ∨ e with unsatisfiable and duplicate
// disjuncts removed. It iterates both operands in place.
func (d DNF) Or(e DNF) DNF {
	u := d.universe()
	if u == nil {
		u = e.universe()
	}
	var v *uview
	if u != nil {
		v = u.view.Load()
	}
	out := make(DNF, 0, len(d)+len(e))
	var seen ConjSet
	out = orInto(out, &seen, u, v, d)
	return orInto(out, &seen, u, v, e)
}

func orInto(out DNF, seen *ConjSet, u *Universe, v *uview, d DNF) DNF {
	var skips int64
	for _, c := range d {
		if len(c.ids) >= 2 {
			impCap, conCap := capUnion(u, v, c.ids)
			if conCap&c.sig != 0 {
				if unsatIDs(u, v, c.ids) {
					continue
				}
			} else {
				skips++ // signature proves no contradictory pair
			}
			if impCap&c.sig != 0 {
				if ids := reduceIDs(u, v, c.ids); len(ids) != len(c.ids) {
					c = mkConj(u, ids)
				}
			} else {
				skips++ // signature proves no entailing pair
			}
		}
		if seen.Add(c) {
			out = append(out, c)
		}
	}
	if skips > 0 {
		u.sigSkips.Add(skips)
	}
	return out
}

// capUnion ORs the capability signatures of an id list: impCap covers every
// id some listed literal strictly entails, conCap every id some listed
// literal contradicts. A zero intersection with a conjunction's presence
// signature proves the corresponding pairwise scan would find nothing.
func capUnion(u *Universe, v *uview, ids []uint32) (impCap, conCap uint64) {
	for _, id := range ids {
		imp, con := u.capOf(v, id)
		impCap |= imp
		conCap |= con
	}
	return impCap, conCap
}

// And returns the conjunction d ∧ e, distributing into DNF, with
// unsatisfiable and duplicate disjuncts removed.
func (d DNF) And(e DNF) DNF {
	if len(d) == 0 || len(e) == 0 {
		return nil
	}
	u := d.universe()
	if u == nil {
		u = e.universe()
	}
	var v *uview
	if u != nil {
		v = u.view.Load()
		u.products.Add(int64(len(d)) * int64(len(e)))
	}
	// Per-operand-disjunct capability signatures, computed once per call and
	// tested per product: a merged cube can only contain a contradictory
	// (resp. entailing) pair if some literal's contradiction (entailment)
	// signature meets the merged presence signature. An operand disjunct that
	// is internally unsatisfiable poisons every product it touches, so its
	// whole row/column is skipped outright.
	var sdBuf, seBuf [8]andSide
	sd, se := prepAndSides(sdBuf[:0], u, v, d), prepAndSides(seBuf[:0], u, v, e)
	return andCore(u, v, d, sd, e, se)
}

// andCore is And's product loop: conjoin every (d, e) disjunct pair under
// the precomputed filter states sd and se.
func andCore(u *Universe, v *uview, d DNF, sd []andSide, e DNF, se []andSide) DNF {
	var skips int64
	var out DNF
	// A lone product cannot collide with anything, so the dedup set — and its
	// hashing — is bypassed entirely for 1×1 conjunctions, the bulk of the
	// backward walk's And traffic.
	single := len(d) == 1 && len(e) == 1
	var seen ConjSet
	var scratch []uint32
	// Survivor id lists are carved out of a shared arena: many small merged
	// cubes become a few chunk allocations. Full slice expressions keep later
	// appends from clobbering handed-out chunks.
	var arena []uint32
	var buf1 [8]uint64
	for i1, c1 := range d {
		s1 := sd[i1]
		if s1.skip {
			continue
		}
		var mask1 uset.Words
		if len(c1.ids) > 0 {
			mask1 = maskOf(buf1[:], c1.ids)
		}
		for i2, c2 := range e {
			s2 := se[i2]
			if s2.skip {
				continue
			}
			var ids []uint32
			var sig uint64
			scratched := false // ids aliases scratch: copy before retaining
			switch {
			case len(c1.ids) == 0:
				ids, sig = c2.ids, c2.sig
			case len(c2.ids) == 0:
				ids, sig = c1.ids, c1.sig
			default:
				// Both operands are internally contradiction-free, so an
				// unsatisfiable product must pair a c1 literal against a c2
				// literal — testable from c2's rows against c1's mask before
				// paying for the merge. Most doomed products die here without
				// ever materializing their id list.
				if (s1.conCap&c2.sig)|(s2.conCap&c1.sig) != 0 {
					if crossUnsat(u, v, mask1, c2.ids) {
						continue
					}
				} else {
					skips++ // signatures prove no contradictory cross pair
				}
				scratch = mergeIDs(scratch, v.rank, c1.ids, c2.ids)
				ids, sig = scratch, c1.sig|c2.sig
				scratched = true
			}
			if len(ids) >= 2 {
				if (s1.impCap|s2.impCap)&sig != 0 {
					// reduceIDs allocates only when it drops a literal, so a
					// shorter result no longer aliases the scratch buffer.
					if r := reduceIDs(u, v, ids); len(r) != len(ids) {
						ids, scratched = r, false
					}
				} else {
					skips++
				}
			}
			c := mkConj(u, ids)
			if !single && seen.Has(c) {
				continue
			}
			if scratched {
				if len(arena)+len(ids) > cap(arena) {
					// Start small — most And calls keep only a cube or two —
					// and double per exhausted chunk.
					n := 2 * cap(arena)
					if n < 16 {
						n = 16
					}
					if len(ids) > n {
						n = len(ids)
					}
					arena = make([]uint32, 0, n)
				}
				start := len(arena)
				arena = append(arena, ids...)
				c.ids = arena[start:len(arena):len(arena)]
			}
			if !single {
				seen.Add(c)
			}
			if out == nil {
				// First survivor: size for the common shape (few survivors
				// per operand pair) without paying for calls that die empty.
				n := len(d) + len(e)
				if p := len(d) * len(e); p < n {
					n = p
				}
				out = make(DNF, 0, n)
			}
			out = append(out, c)
		}
	}
	if skips > 0 {
		u.sigSkips.Add(skips)
	}
	return out
}

// andSide is one operand disjunct's precomputed filter state for And.
type andSide struct {
	skip           bool // internally unsatisfiable: every product dies
	impCap, conCap uint64
}

// prepAndSides appends each disjunct's filter state to buf, which And hands
// in as a stack array so typical (narrow) operands allocate nothing.
func prepAndSides(buf []andSide, u *Universe, v *uview, d DNF) []andSide {
	out := buf
	if cap(out) < len(d) {
		out = make([]andSide, 0, len(d))
	}
	out = out[:len(d)]
	for i, c := range d {
		s := &out[i]
		*s = andSide{}
		s.impCap, s.conCap = capUnion(u, v, c.ids)
		// The signature gate is exact here too: conCap∩sig == 0 proves the
		// disjunct contradiction-free without a scan.
		if len(c.ids) >= 2 && s.conCap&c.sig != 0 && unsatIDs(u, v, c.ids) {
			s.skip = true
		}
	}
	return out
}

// SortBySize orders disjuncts by syntactic size (then by joined key, for
// determinism), as required by toDNF in Fig 8. The tie-break compares
// interned keys positionally without materializing the joined string.
func (d DNF) SortBySize() DNF {
	var v *uview
	if u := d.universe(); u != nil {
		v = u.view.Load()
	}
	// DNFs that have been through the pipeline once are usually already in
	// order; detecting that saves the defensive copy.
	if d.sortedBySize(v) {
		return d
	}
	out := append(DNF{}, d...)
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].ids) != len(out[j].ids) {
			return len(out[i].ids) < len(out[j].ids)
		}
		if v == nil {
			return false
		}
		return v.lessJoined(out[i].ids, out[j].ids)
	})
	return out
}

func (d DNF) sortedBySize(v *uview) bool {
	for i := 1; i < len(d); i++ {
		if len(d[i-1].ids) < len(d[i].ids) {
			continue
		}
		if len(d[i-1].ids) > len(d[i].ids) {
			return false
		}
		if v != nil && v.lessJoined(d[i].ids, d[i-1].ids) {
			return false
		}
	}
	return true
}

// Simplify removes disjuncts subsumed by earlier (shorter) ones: a disjunct
// is dropped if it entails a kept disjunct, which means its denotation is
// contained in the kept one's and removing it preserves δ (Fig 8).
//
// Candidate×kept pairs are screened before the full entailment check by two
// index structures, both sound necessary conditions, so most pairs never
// dereference a cube:
//
//   - One-watched-literal groups: kept disjuncts sharing a first id w live in
//     one group. A candidate can only entail them if some candidate literal
//     entails w, i.e. imp(w) intersects the candidate's mask — one row test
//     dismisses the whole group.
//   - Signature superset test: a candidate entails a kept disjunct only if
//     the kept presence signature is covered by the candidate's capability
//     signature (the ids its literals entail, plus its own ids for the
//     diagonal). kept.sig &^ csig != 0 disproves subsumption bitwise.
//
// Dismissed pairs count on formula.sig_filtered; executed full checks on
// formula.subsumption_checks. The redundancy decision is an existential over
// kept disjuncts, so reordering the checks by group never changes the output.
func (d DNF) Simplify() DNF {
	if len(d) <= 1 {
		return d // nothing to subsume or reorder; skip the sort copy
	}
	sorted := d.SortBySize()
	u := d.universe()
	if u == nil { // every disjunct is the empty conjunction
		return sorted[:1]
	}
	if len(sorted[0].ids) == 0 {
		return sorted[:1] // a true disjunct subsumes everything
	}
	v := u.view.Load()
	out := make(DNF, 0, len(sorted))
	// A group's first member lives inline; the overflow slice is only
	// allocated for groups that accumulate a second kept disjunct, which is
	// the minority — most first ids are unique within a DNF.
	type watchGroup struct {
		w     uint32 // shared first id of the group's kept disjuncts
		first int32
		rest  []int32
	}
	var groups []watchGroup
	var checks, filtered int64
	var buf [8]uint64
	for _, c := range sorted {
		mask := maskOf(buf[:], c.ids)
		var csig uint64
		for _, id := range c.ids {
			imp, _ := u.capOf(v, id)
			csig |= imp | 1<<(id&63)
		}
		redundant := false
		for gi := range groups {
			g := &groups[gi]
			if !u.impRow(v, g.w).Intersects(mask) {
				filtered += int64(1 + len(g.rest))
				continue
			}
			subsumedBy := func(oi int32) bool {
				kept := out[oi]
				if kept.sig&^csig != 0 {
					filtered++
					return false
				}
				checks++
				return impliesMask(u, v, mask, kept.ids)
			}
			if subsumedBy(g.first) {
				redundant = true
				break
			}
			for _, oi := range g.rest {
				if subsumedBy(oi) {
					redundant = true
					break
				}
			}
			if redundant {
				break
			}
		}
		if !redundant {
			w := c.ids[0]
			placed := false
			for gi := range groups {
				if groups[gi].w == w {
					groups[gi].rest = append(groups[gi].rest, int32(len(out)))
					placed = true
					break
				}
			}
			if !placed {
				groups = append(groups, watchGroup{w: w, first: int32(len(out))})
			}
			out = append(out, c)
		}
	}
	u.subsumes.Add(checks)
	u.sigFiltered.Add(filtered)
	return out
}

// DropK implements dropk of Fig 8: keep the first k−1 disjuncts by size plus
// the shortest disjunct that holds at the current (p, d) — supplied as the
// holds predicate. If no disjunct holds, the first k disjuncts are kept
// (the retention condition of approx is vacuous in that case). When the
// kept disjuncts are a prefix of d, the result is that prefix with its
// capacity clipped, so appending to it never writes into d; only a holding
// disjunct past the first k is copied out.
func (d DNF) DropK(k int, holds func(Conj) bool) DNF {
	if len(d) <= k {
		return d
	}
	keep := max(k-1, 0)
	for i, c := range d {
		if !holds(c) {
			continue
		}
		for _, o := range d[:keep] {
			if o.Equal(c) { // already kept
				return d[:keep:keep]
			}
		}
		if i == keep {
			return d[: keep+1 : keep+1]
		}
		out := make(DNF, keep+1)
		copy(out, d[:keep])
		out[keep] = c
		return out
	}
	// No disjunct holds at (p, d); keep the first k.
	return d[:k:k]
}

// Approx is the generic under-approximation operator of §4.1:
// simplify ∘ toDNF, followed by dropk when more than k disjuncts remain.
// k ≤ 0 disables dropping (the "no under-approximation" ablation).
func Approx(f Formula, u *Universe, k int, holds func(Conj) bool) DNF {
	d := ToDNF(f, u).Simplify()
	if k <= 0 || len(d) <= k {
		return d
	}
	return d.DropK(k, holds)
}

// ApproxDNF is Approx for an already-converted DNF.
func ApproxDNF(d DNF, k int, holds func(Conj) bool) DNF {
	d = d.Simplify()
	if k <= 0 || len(d) <= k {
		return d
	}
	return d.DropK(k, holds)
}
