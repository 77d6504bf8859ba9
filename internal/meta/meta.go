// Package meta implements the backward meta-analysis of §4 (Fig 7).
//
// Given an abstract counterexample trace t of the forward analysis run with
// abstraction p from initial state dI, the meta-analysis walks t backward,
// transforming a boolean formula over (abstraction, abstract-state) pairs.
// The formula is a sufficient condition for the forward analysis to fail:
// for every (p', d') in its denotation, instantiating the forward analysis
// with p' and running it from d' along the analyzed suffix fails to prove
// the query (Theorem 3). Each step applies the analysis-specific weakest
// precondition [a]♭ and then the under-approximation operator approx at the
// abstract state the forward analysis computed at that point.
package meta

import (
	"sync"
	"sync/atomic"

	"tracer/internal/budget"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
)

// Client bundles what an analysis must provide to run the meta-analysis.
// D is the forward analysis's abstract state type.
type Client[D comparable] struct {
	// WP returns the weakest precondition [a]♭ of a positive primitive π:
	// the set of (p, d) such that (p, [a]p(d)) ∈ δ(π). Negative literals are
	// handled generically: since [a]p is a total function, wp(¬π) = ¬wp(π).
	WP func(a lang.Atom, p formula.Prim) formula.Formula
	// U is the interned literal universe (wrapping the analysis's literal
	// theory) used for DNF conversion and subsumption. A driver program
	// shares one universe per client across every CEGAR iteration, query
	// and batch on it; it is safe for concurrent use.
	U *formula.Universe
	// Eval evaluates a literal at (p, d) where p is the abstraction the
	// client was built for (captured in the closure). It must be pure: a
	// beam cut evaluates each literal at most once.
	Eval func(l formula.Lit, d D) bool
	// K is the beam width for dropk; K ≤ 0 disables under-approximation.
	K int
	// Cache optionally shares memoized weakest preconditions across clients
	// (they depend only on the analysis, not on the abstraction p). Entries
	// are keyed by (atom, interned literal ID), so a shared cache must be
	// used with the same U it was filled through.
	Cache *WPCache
	// Budget, when non-nil, is polled during the backward walk (once per
	// trace atom and once per DNF cube expansion); when it trips, the walk
	// stops early and the remaining (earlier) trace points keep zero-value
	// formulas. Callers must check Budget.Tripped() before using the result,
	// since a truncated condition is not a sound failure condition.
	Budget *budget.Budget
}

// WPCache memoizes per-(atom, literal) weakest-precondition DNFs. It is
// safe to share across every Client of one analysis (one client, one part
// of the program, one literal universe), including concurrently: lookups
// take a read lock, and backward walks fill it from any goroutine. A driver
// program keeps one per (client, part) for its whole lifetime, so every
// query, batch and server round on that program fills the same cache.
// Entries are immutable once stored (both goroutines of a racing fill
// compute the same value).
//
// The cache is two-level: the atom map is consulted once per wpDNF call
// (atoms are interface values, so the map lookup pays a typehash), and the
// per-atom level is indexed by the dense interned literal ID — the
// per-literal lookups on the backward walk's hot path are a bounds check,
// not a hash. Most literals pass an atom unchanged (wp(l) = l); those
// identity literals live only in the atom's bitmap, and the block table
// stores only the DNFs of the few literals the atom affects.
//
// WPCache rows are deliberately NOT persisted by the warm-start store
// (internal/warm), even though they are immutable within a run: type-state
// WP consults the analysis instance's points-to results and site
// identities, and the interned literal IDs the rows are keyed by are
// assigned per-session, so a stored row would need its whole intern table
// and environment re-validated to be trusted. The store persists blocking
// clauses instead — a warm solve re-proves its verdict in at most one
// forward run and near-zero backward passes, leaving almost nothing for a
// persisted WP row to save.
type WPCache struct {
	mu sync.RWMutex
	m  map[lang.Atom]*atomWP

	// Formula-memo and walk telemetry, flushed as the meta.wp_formula_memo_*
	// and meta.walk_* obs counters by FlushWPObs. A walk adds its atom counts
	// once, when it ends.
	fmHits, fmMisses       atomic.Int64
	walkAtoms, walkChanged atomic.Int64
}

// atomWP holds one atom's per-literal entries, indexed by interned ID. The
// non-identity DNFs sit in a grow-only two-level table: an atomically
// published directory of fixed-size blocks, each slot an atomic pointer to
// an immutable DNF. A lookup is two pointer loads and a fill is a single
// atomic store into its slot — nothing is copied, so filling n literals
// costs O(n) total rather than the O(n²) a copy-on-write snapshot would
// pay. Only directory growth and block creation take the mutex, and both
// are rare.
type atomWP struct {
	mu     sync.Mutex // serializes directory growth
	blocks atomic.Pointer[[]*atomic.Pointer[wpBlock]]

	// idbm records every literal whose precondition has been computed:
	// known marks it, and ident marks those whose wp is the identity. It is
	// the only record of an identity literal, and it serves the walk's
	// unchanged test with one pointer load plus a mask test per footprint
	// word. Published copy-on-write; fills are once per (atom, literal), so
	// the copies are rare.
	idbm atomic.Pointer[idBits]

	// Formula-level memo: wp applied to a whole DNF, keyed by the formula's
	// fingerprint. The backward walks of successive CEGAR iterations revisit
	// the same (atom, formula) pairs whenever counterexample traces share
	// structure, and a hit skips the entire per-cube substitution including
	// its And chain. Like the per-literal entries, results depend only on
	// the atom and the formula (never on the abstraction or the forward
	// state), so entries are valid forever. Only formulas the atom changes
	// reach it: the walk answers the rest from idbm.
	fmu     sync.RWMutex
	fm      map[uint64][]fmEntry
	fmCount int
}

// fmEntry is one memoized wpDNF result.
type fmEntry struct{ in, out formula.DNF }

// fmMaxEntries bounds one atom's formula memo; beyond it new results are
// simply not stored (the per-literal cache below still serves them).
const fmMaxEntries = 1 << 14

func (w *atomWP) getFM(key uint64, d formula.DNF) (formula.DNF, bool) {
	w.fmu.RLock()
	defer w.fmu.RUnlock()
	for _, e := range w.fm[key] {
		if e.in.Equal(d) {
			return e.out, true
		}
	}
	return nil, false
}

func (w *atomWP) putFM(key uint64, d, out formula.DNF) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.fmCount >= fmMaxEntries {
		return
	}
	for _, e := range w.fm[key] {
		if e.in.Equal(d) {
			return // racing fill computed the same value
		}
	}
	if w.fm == nil {
		w.fm = map[uint64][]fmEntry{}
	}
	w.fm[key] = append(w.fm[key], fmEntry{in: d, out: out})
	w.fmCount++
}

const (
	wpBlockBits = 7
	wpBlockSize = 1 << wpBlockBits
)

// idBits is an immutable pair of bitmaps over interned literal IDs (see
// atomWP.idbm).
type idBits struct{ known, ident []uint64 }

// has reports whether literal lid's entry is known and, if so, whether it is
// the identity.
func (b *idBits) has(lid uint32) (known, ident bool) {
	w := int(lid >> 6)
	if b == nil || w >= len(b.known) {
		return false, false
	}
	bit := uint64(1) << (lid & 63)
	return b.known[w]&bit != 0, b.ident[w]&bit != 0
}

// covers reports whether every literal of ws is known to be the identity.
// ident marks only known literals, so its words alone decide.
func (b *idBits) covers(ws []wordMask) bool {
	for _, x := range ws {
		if b == nil || x.w >= len(b.ident) || b.ident[x.w]&x.mask != x.mask {
			return false
		}
	}
	return true
}

// mark publishes literal lid's identity flag into w.idbm.
func (w *atomWP) mark(lid uint32, identity bool) {
	for {
		old := w.idbm.Load()
		n := int(lid>>6) + 1
		if old != nil && len(old.known) > n {
			n = len(old.known)
		}
		nb := &idBits{known: make([]uint64, n), ident: make([]uint64, n)}
		if old != nil {
			copy(nb.known, old.known)
			copy(nb.ident, old.ident)
		}
		bit := uint64(1) << (lid & 63)
		nb.known[lid>>6] |= bit
		if identity {
			nb.ident[lid>>6] |= bit
		}
		if w.idbm.CompareAndSwap(old, nb) {
			return
		}
	}
}

type wpBlock [wpBlockSize]atomic.Pointer[formula.DNF]

// NewWPCache returns an empty cache.
func NewWPCache() *WPCache { return &WPCache{m: map[lang.Atom]*atomWP{}} }

// atom returns a's per-literal cache level, creating it on first use.
func (c *WPCache) atom(a lang.Atom) *atomWP {
	c.mu.RLock()
	aw := c.m[a]
	c.mu.RUnlock()
	if aw != nil {
		return aw
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if aw = c.m[a]; aw == nil {
		aw = &atomWP{}
		c.m[a] = aw
	}
	return aw
}

func (w *atomWP) get(lid uint32) (formula.DNF, bool) {
	bi := int(lid >> wpBlockBits)
	if bp := w.blocks.Load(); bp != nil && bi < len(*bp) {
		if b := (*bp)[bi].Load(); b != nil {
			if d := b[lid&(wpBlockSize-1)].Load(); d != nil {
				return *d, true
			}
		}
	}
	return nil, false
}

func (w *atomWP) put(lid uint32, d formula.DNF) {
	bi := int(lid >> wpBlockBits)
	for {
		bp := w.blocks.Load()
		if bp == nil || bi >= len(*bp) {
			w.growDir(bi + 1)
			continue
		}
		cell := (*bp)[bi]
		b := cell.Load()
		if b == nil {
			nb := new(wpBlock)
			if cell.CompareAndSwap(nil, nb) {
				b = nb
			} else {
				b = cell.Load()
			}
		}
		// Racing fills of the same slot store equal values, so last-write-
		// wins is fine.
		b[lid&(wpBlockSize-1)].Store(&d)
		return
	}
}

// growDir extends the block directory to cover at least n blocks. The old
// directory's cells are carried over by pointer, so entries published through
// them stay visible.
func (w *atomWP) growDir(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	old := w.blocks.Load()
	if old != nil && len(*old) >= n {
		return
	}
	if old != nil && 2*len(*old) > n {
		n = 2 * len(*old)
	}
	nd := make([]*atomic.Pointer[wpBlock], n)
	var copied int
	if old != nil {
		copied = copy(nd, *old)
	}
	for i := copied; i < n; i++ {
		nd[i] = new(atomic.Pointer[wpBlock])
	}
	w.blocks.Store(&nd)
}

// wpLit applies the weakest precondition to a possibly negated literal.
func (c *Client[D]) wpLit(a lang.Atom, l formula.Lit) formula.Formula {
	f := c.WP(a, l.P)
	if l.Neg {
		return formula.Not(f)
	}
	return f
}

// wpLitDNF returns the DNF of [a]♭(l), where lid is the literal's interned
// ID in c.U and aw the atom's cache level, or identity true (and no DNF)
// when the precondition is l itself: the common case, which the caller
// handles without DNF work and the cache records in the idbm bitmap alone.
// Cached DNFs are complete: ToDNF is not budgeted, so a tripped budget
// never stores a truncated entry.
func (c *Client[D]) wpLitDNF(aw *atomWP, a lang.Atom, lid uint32) (d formula.DNF, identity bool) {
	if known, ident := aw.idbm.Load().has(lid); known && ident {
		return nil, true
	}
	if d, ok := aw.get(lid); ok {
		return d, false
	}
	d = formula.ToDNF(c.wpLit(a, c.U.Lit(lid)), c.U)
	if len(d) == 1 && len(d[0].IDs()) == 1 && d[0].IDs()[0] == lid {
		aw.mark(lid, true)
		return nil, true
	}
	aw.put(lid, d)
	aw.mark(lid, false)
	return d, false
}

// wpDNF applies [a]♭ to a formula at least one of whose literals the atom
// changes (the walk's footprint test rules out the rest), returning it
// simplified. It consults the per-atom formula memo first; on a miss, each
// disjunct keeps its identity literals (retained in one sorted pass) and
// conjoins in the preconditions of the few the atom affects.
func (c *Client[D]) wpDNF(aw *atomWP, a lang.Atom, d formula.DNF) formula.DNF {
	key := d.Fingerprint()
	if out, ok := aw.getFM(key, d); ok {
		c.Cache.fmHits.Add(1)
		return out
	}
	c.Cache.fmMisses.Add(1)
	out := make(formula.DNF, 0, len(d))
	var seen formula.ConjSet
	var subs []formula.DNF
	var identity []bool // only allocated for cubes wider than the bitmask
	for _, conj := range d {
		ids := conj.IDs()
		subs = subs[:0]
		// Cubes virtually never exceed 64 literals, so the per-literal
		// identity flags live in a word; the slice is a cold fallback.
		var idBits uint64
		wide := len(ids) > 64
		if wide {
			if cap(identity) < len(ids) {
				identity = make([]bool, len(ids))
			} else {
				identity = identity[:len(ids)]
				clear(identity)
			}
		}
		for i, lid := range ids {
			sub, ident := c.wpLitDNF(aw, a, lid)
			if ident {
				if wide {
					identity[i] = true
				} else {
					idBits |= 1 << uint(i)
				}
			} else {
				subs = append(subs, sub)
			}
		}
		if len(subs) == 0 {
			if seen.Add(conj) {
				out = append(out, conj)
			}
			continue
		}
		keep := func(i int) bool { return idBits&(1<<uint(i)) != 0 }
		if wide {
			keep = func(i int) bool { return identity[i] }
		}
		// Conjoin the substituted literals, polling the budget before each
		// link; a trip leaves the partial conjunction, and a false link ends
		// the fold.
		acc := formula.DNF{conj.Retain(keep)}
		for _, sub := range subs {
			if !c.Budget.Poll() {
				break
			}
			if len(acc) == 0 || len(sub) == 0 {
				acc = nil
				break
			}
			acc = acc.And(sub)
		}
		for _, nc := range acc {
			if seen.Add(nc) {
				out = append(out, nc)
			}
		}
	}
	// Simplify here rather than in the walk's approx step: the memo then
	// serves already-simplified formulas, so a hit skips the subsumption
	// pass along with everything else (the walk keeps only the beam
	// truncation, which depends on the forward state and abstraction).
	out = out.Simplify()
	// A budget trip mid-chain truncates the conjunction; the partial result
	// is fine to return (the walk is being abandoned) but must never be
	// memoized as the true value.
	if !c.Budget.Tripped() {
		aw.putFM(key, d, out)
	}
	return out
}

// approxAt runs the approx operator relative to the abstract state d that
// the forward analysis computed at the current point.
func (c *Client[D]) approxAt(f formula.DNF, d D) formula.DNF {
	holds := func(conj formula.Conj) bool {
		return conj.Eval(func(l formula.Lit) bool { return c.Eval(l, d) })
	}
	return formula.ApproxDNF(f, c.K, holds)
}

// Run computes B[t](p, dI, not(q)): the sufficient condition for failure at
// the start of trace t. states must be the pre-state sequence returned by
// dataflow.StatesAlong(t, dI, tr) — states[i] is the forward state before
// atom t[i], and states[len(t)] the failing final state. post is not(q). A
// budget trip before the walk reaches the start of t yields nil.
func Run[D comparable](c *Client[D], t lang.Trace, states []D, post formula.Formula) formula.DNF {
	return walk(c, t, states, post, nil)
}

// RunAnnotated is Run but returns the formula at every point of the trace:
// result[i] is the condition before atom t[i] (so result[0] is B[t]'s value
// and result[len(t)] the approximated not(q)). These per-point formulas are
// the ψ annotations of Figs 1 and 6. A budget trip leaves the points the
// walk did not reach nil.
func RunAnnotated[D comparable](c *Client[D], t lang.Trace, states []D, post formula.Formula) []formula.DNF {
	ann := make([]formula.DNF, len(t)+1)
	walk(c, t, states, post, ann)
	return ann
}

// walk is the backward walk of Run and RunAnnotated; it stores the formula
// at each point it reaches into ann when ann is non-nil. Most atoms of an
// inlined trace leave the formula as it is, so the walk keeps the formula's
// footprint and pays one mask test per footprint word for such an atom; the
// per-literal work runs once per formula change.
func walk[D comparable](c *Client[D], t lang.Trace, states []D, post formula.Formula, ann []formula.DNF) formula.DNF {
	if len(states) != len(t)+1 {
		panic("meta: states must have length len(t)+1")
	}
	if c.Cache == nil {
		c.Cache = NewWPCache()
	}
	w := walker[D]{c: c}
	cur := c.approxAt(formula.ToDNF(post, c.U), states[len(t)])
	w.track(cur)
	if ann != nil {
		ann[len(t)] = cur
	}
	var visited, changed int64
	for i := len(t) - 1; i >= 0; i-- {
		if !c.Budget.Poll() {
			cur = nil
			break
		}
		visited++
		aw := c.Cache.atom(t[i]) // one interface-keyed lookup per atom
		if !w.unchangedBy(aw, t[i]) {
			// wpDNF returns the formula simplified, and approx is
			// idempotent, so a changed formula needs only the beam cut and
			// an unchanged one (already simplified and within the beam
			// width) needs neither.
			changed++
			cur = w.cut(c.wpDNF(aw, t[i], cur), states[i])
			w.track(cur)
		}
		if ann != nil {
			ann[i] = cur
		}
	}
	c.Cache.walkAtoms.Add(visited)
	c.Cache.walkChanged.Add(changed)
	return cur
}

// walker is one walk's record of its current formula and its scratch. A
// walk owns its walker, so concurrent walks over one WPCache share nothing
// here.
type walker[D comparable] struct {
	c *Client[D]
	// lits are the current formula's distinct literal IDs in first-
	// appearance order, and words the same set as (word, mask) pairs over
	// the ID space.
	lits  []uint32
	words []wordMask
	// Bitsets over the ID space, all zero between uses: seen marks the
	// literals track's pass has met or a cut has evaluated, and val those a
	// cut found true; touched lists the words a cut set.
	seen, val []uint64
	touched   []int
}

// wordMask is one word of a footprint: the bits of word w of the ID space
// that the formula's literals occupy.
type wordMask struct {
	w    int
	mask uint64
}

// grow returns bitset s extended with zero words to cover every literal ID
// of universe u. A formula's literals are interned before it is built, so
// its IDs are below the universe's length when a walk reads them.
func grow(s []uint64, u *formula.Universe) []uint64 {
	if n := u.Len()>>6 + 1; n > len(s) {
		return append(s, make([]uint64, n-len(s))...)
	}
	return s
}

// track makes f the walk's footprint.
func (w *walker[D]) track(f formula.DNF) {
	seen := grow(w.seen, w.c.U)
	lits, words := w.lits[:0], w.words[:0]
	for _, conj := range f {
		for _, lid := range conj.IDs() {
			i, bit := lid>>6, uint64(1)<<(lid&63)
			if seen[i]&bit != 0 {
				continue
			}
			if seen[i] == 0 {
				words = append(words, wordMask{w: int(i)})
			}
			seen[i] |= bit
			lits = append(lits, lid)
		}
	}
	for j := range words {
		m := &words[j]
		m.mask, seen[m.w] = seen[m.w], 0
	}
	w.seen, w.lits, w.words = seen, lits, words
}

// unchangedBy reports whether atom a leaves every literal of the footprint
// as it is. When the atom's row already marks them all identity, that is
// one mask test per footprint word. Otherwise the literals are visited in
// first-appearance order, filling unknown rows, up to the first one the
// atom changes.
func (w *walker[D]) unchangedBy(aw *atomWP, a lang.Atom) bool {
	bm := aw.idbm.Load()
	if bm.covers(w.words) {
		return true
	}
	for _, lid := range w.lits {
		if known, ident := bm.has(lid); known {
			if !ident {
				return false
			}
			continue
		}
		if _, ident := w.c.wpLitDNF(aw, a, lid); !ident {
			return false
		}
	}
	return true
}

// cut is the beam truncation (dropk) at the forward state d, for a formula
// wpDNF returned simplified: wpDNF's Simplify and then cut are approx's
// dropk ∘ simplify. The client's Eval is pure, so each literal is evaluated
// at most once per cut and the disjunct DropK keeps is the same.
func (w *walker[D]) cut(f formula.DNF, d D) formula.DNF {
	c := w.c
	if c.K <= 0 || len(f) <= c.K {
		return f
	}
	seen, val := grow(w.seen, c.U), grow(w.val, c.U)
	holds := func(conj formula.Conj) bool {
		for _, lid := range conj.IDs() {
			i, bit := lid>>6, uint64(1)<<(lid&63)
			if seen[i]&bit == 0 {
				if seen[i] == 0 {
					w.touched = append(w.touched, int(i))
				}
				seen[i] |= bit
				if c.Eval(c.U.Lit(lid), d) {
					val[i] |= bit
				}
			}
			if val[i]&bit == 0 {
				return false
			}
		}
		return true
	}
	out := f.DropK(c.K, holds)
	for _, i := range w.touched {
		seen[i], val[i] = 0, 0
	}
	w.seen, w.val, w.touched = seen, val, w.touched[:0]
	return out
}

// CheckWP verifies requirement (2) of §4 for a single atom over explicit
// universes: δ([a]♭(π)) must equal {(p, d) | (p, [a]p(d)) ∈ δ(π)}. It
// returns the offending (p, d) pairs (as indices into the given slices)
// where the two sides disagree. transfer(p, d) must implement [a]p.
// It is used by the analyses' soundness tests.
func CheckWP[P any, D comparable](
	a lang.Atom,
	prim formula.Prim,
	wp func(a lang.Atom, p formula.Prim) formula.Formula,
	u *formula.Universe,
	abstractions []P,
	states []D,
	transfer func(p P, d D) D,
	eval func(l formula.Lit, p P, d D) bool,
) (bad [][2]int) {
	f := wp(a, prim)
	pre := formula.ToDNF(f, u)
	for pi, p := range abstractions {
		for di, d := range states {
			lhs := pre.Eval(func(l formula.Lit) bool { return eval(l, p, d) })
			post := transfer(p, d)
			rhs := eval(formula.Lit{P: prim}, p, post)
			if lhs != rhs {
				bad = append(bad, [2]int{pi, di})
			}
		}
	}
	return bad
}

// CheckSoundness verifies both clauses of Theorem 3 on a concrete trace for
// the client's abstraction p (captured in c.Eval) against explicit universes
// of alternative abstractions and states:
//
//  1. if (p, Fp[t](dI)) ∈ δ(f) then (p, dI) ∈ δ(B[t](p, dI, f));
//  2. every (p0, d0) ∈ δ(B[t](p, dI, f)) satisfies (p0, Fp0[t](d0)) ∈ δ(f).
//
// evalFor(p0) must evaluate literals under abstraction p0; transferFor(p0)
// must be the forward transfer instantiated at p0. It returns a descriptive
// violation count of each clause.
func CheckSoundness[P any, D comparable](
	c *Client[D],
	t lang.Trace,
	dI D,
	post formula.Formula,
	selfHolds bool, // whether (p, Fp[t](dI)) ∈ δ(post), i.e. the run failed
	abstractions []P,
	states []D,
	transferFor func(p P) dataflow.Transfer[D],
	evalFor func(p P) func(l formula.Lit, d D) bool,
	selfTransfer dataflow.Transfer[D],
) (clause1Violations, clause2Violations int) {
	pre := dataflow.StatesAlong(t, dI, selfTransfer)
	f := Run(c, t, pre, post)
	if selfHolds {
		if !f.Eval(func(l formula.Lit) bool { return c.Eval(l, dI) }) {
			clause1Violations++
		}
	}
	for _, p0 := range abstractions {
		ev := evalFor(p0)
		tr := transferFor(p0)
		for _, d0 := range states {
			if !f.Eval(func(l formula.Lit) bool { return ev(l, d0) }) {
				continue
			}
			final := dataflow.EvalTrace(t, d0, tr)
			if !post.Eval(func(l formula.Lit) bool { return ev(l, final) }) {
				clause2Violations++
			}
		}
	}
	return clause1Violations, clause2Violations
}
