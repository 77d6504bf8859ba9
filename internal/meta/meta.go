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
	// client was built for (captured in the closure).
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

	// Formula-memo telemetry, flushed as the meta.wp_formula_memo_* obs
	// counters by FlushWPObs.
	fmHits, fmMisses atomic.Int64
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
	// the only record of an identity literal, and it serves wpDNF's
	// unchanged fast path with one pointer load plus two bit tests. Published
	// copy-on-write; fills are once per (atom, literal), so the copies are
	// rare.
	idbm atomic.Pointer[idBits]

	// Formula-level memo: wp applied to a whole DNF, keyed by the formula's
	// fingerprint. The backward walks of successive CEGAR iterations revisit
	// the same (atom, formula) pairs whenever counterexample traces share
	// structure, and a hit skips the entire per-cube substitution including
	// its And chain. Like the per-literal entries, results depend only on
	// the atom and the formula (never on the abstraction or the forward
	// state), so entries are valid forever.
	fmu     sync.RWMutex
	fm      map[uint64][]fmEntry
	fmCount int
}

// fmEntry is one memoized wpDNF result. For unchanged formulas out is nil
// and the caller returns its own input, avoiding a redundant retained ref.
type fmEntry struct {
	in        formula.DNF
	out       formula.DNF
	unchanged bool
}

// fmMaxEntries bounds one atom's formula memo; beyond it new results are
// simply not stored (the per-literal cache below still serves them).
const fmMaxEntries = 1 << 14

func (w *atomWP) getFM(key uint64, d formula.DNF) (formula.DNF, bool, bool) {
	w.fmu.RLock()
	defer w.fmu.RUnlock()
	for _, e := range w.fm[key] {
		if e.in.Equal(d) {
			return e.out, e.unchanged, true
		}
	}
	return nil, false, false
}

func (w *atomWP) putFM(key uint64, d, out formula.DNF, unchanged bool) {
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
	w.fm[key] = append(w.fm[key], fmEntry{in: d, out: out, unchanged: unchanged})
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

// wpDNF applies [a]♭ to a whole DNF formula, returning DNF directly and a
// flag telling whether the formula is unchanged (the atom does not affect
// any literal — the overwhelmingly common case on long inlined traces,
// which lets the driver skip the approx step entirely). For each disjunct
// it splits literals into the unchanged majority (retained in one sorted
// pass) and the few literals the atom actually affects (whose preconditions
// are conjoined in).
func (c *Client[D]) wpDNF(a lang.Atom, d formula.DNF) (formula.DNF, bool) {
	if c.Cache == nil {
		c.Cache = NewWPCache()
	}
	aw := c.Cache.atom(a) // one interface-keyed lookup for the whole DNF
	// Fast path: most atoms on an inlined trace touch none of the formula's
	// literals. Literals repeat heavily across cubes, so test identity once
	// per distinct literal of the whole formula instead of once per
	// (cube, literal) pair; only a changed formula pays the per-cube pass.
	var sup [64]uint32
	ns := 0
	bounded := true
supScan:
	for _, conj := range d {
		for _, lid := range conj.IDs() {
			dup := false
			for _, s := range sup[:ns] {
				if s == lid {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if ns == len(sup) {
				bounded = false
				break supScan
			}
			sup[ns] = lid
			ns++
		}
	}
	if bounded {
		unchanged := true
		bm := aw.idbm.Load()
		for _, lid := range sup[:ns] {
			if known, ident := bm.has(lid); known {
				if !ident {
					unchanged = false
					break
				}
				continue
			}
			if _, ident := c.wpLitDNF(aw, a, lid); !ident {
				unchanged = false
				break
			}
		}
		if unchanged {
			return d, true
		}
	}
	// The formula changes (or is too wide for the scan above): consult the
	// per-atom formula memo before paying for the per-cube substitution.
	// Unchanged formulas are answered above and stay out of the memo, so it
	// holds only the expensive cases.
	key := d.Fingerprint()
	if mout, munchanged, ok := aw.getFM(key, d); ok {
		c.Cache.fmHits.Add(1)
		if munchanged {
			return d, true
		}
		return mout, false
	}
	c.Cache.fmMisses.Add(1)
	var out formula.DNF
	var seen formula.ConjSet
	allIdentity := true
	var subs []formula.DNF
	var identity []bool // only allocated for cubes wider than the bitmask
	for ci, conj := range d {
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
		allID := true
		for i, lid := range ids {
			sub, ident := c.wpLitDNF(aw, a, lid)
			if ident {
				if wide {
					identity[i] = true
				} else {
					idBits |= 1 << uint(i)
				}
			} else {
				allID = false
				subs = append(subs, sub)
			}
		}
		if allID && allIdentity {
			// Still on the unchanged fast path: defer any copying.
			continue
		}
		if allIdentity {
			// First changed disjunct: materialize the prefix.
			allIdentity = false
			out = append(make(formula.DNF, 0, len(d)), d[:ci]...)
			for _, pc := range d[:ci] {
				seen.Add(pc)
			}
		}
		keep := func(i int) bool { return idBits&(1<<uint(i)) != 0 }
		if wide {
			keep = func(i int) bool { return identity[i] }
		}
		// AndChain carries the accumulator's And filter state across the
		// fold, instead of re-deriving it once per substituted literal.
		acc := formula.DNF{conj.Retain(keep)}.AndChain(subs, c.Budget.Poll)
		for _, nc := range acc {
			if seen.Add(nc) {
				out = append(out, nc)
			}
		}
	}
	if allIdentity {
		aw.putFM(key, d, nil, true)
		return d, true
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
		aw.putFM(key, d, out, false)
	}
	return out, false
}

// approxAt runs the approx operator relative to the abstract state d that
// the forward analysis computed at the current point.
func (c *Client[D]) approxAt(f formula.DNF, d D) formula.DNF {
	holds := func(conj formula.Conj) bool {
		return conj.Eval(func(l formula.Lit) bool { return c.Eval(l, d) })
	}
	return formula.ApproxDNF(f, c.K, holds)
}

// dropAt is approxAt minus the simplification: the beam truncation (dropk)
// for formulas wpDNF already returns simplified. Composing wpDNF's Simplify
// with dropAt yields exactly approxAt's dropk ∘ simplify.
func (c *Client[D]) dropAt(f formula.DNF, d D) formula.DNF {
	if c.K <= 0 || len(f) <= c.K {
		return f
	}
	holds := func(conj formula.Conj) bool {
		return conj.Eval(func(l formula.Lit) bool { return c.Eval(l, d) })
	}
	return f.DropK(c.K, holds)
}

// Run computes B[t](p, dI, not(q)): the sufficient condition for failure at
// the start of trace t. states must be the pre-state sequence returned by
// dataflow.StatesAlong(t, dI, tr) — states[i] is the forward state before
// atom t[i], and states[len(t)] the failing final state. post is not(q).
func Run[D comparable](c *Client[D], t lang.Trace, states []D, post formula.Formula) formula.DNF {
	ann := RunAnnotated(c, t, states, post)
	return ann[0]
}

// RunAnnotated is Run but returns the formula at every point of the trace:
// result[i] is the condition before atom t[i] (so result[0] is B[t]'s value
// and result[len(t)] the approximated not(q)). These per-point formulas are
// the ψ annotations of Figs 1 and 6.
func RunAnnotated[D comparable](c *Client[D], t lang.Trace, states []D, post formula.Formula) []formula.DNF {
	if len(states) != len(t)+1 {
		panic("meta: states must have length len(t)+1")
	}
	out := make([]formula.DNF, len(t)+1)
	cur := c.approxAt(formula.ToDNF(post, c.U), states[len(t)])
	out[len(t)] = cur
	for i := len(t) - 1; i >= 0; i-- {
		if !c.Budget.Poll() {
			break
		}
		pre, unchanged := c.wpDNF(t[i], cur)
		if !unchanged {
			// approx is idempotent, so unchanged formulas (already
			// simplified and within the beam width) skip it; changed ones
			// come back simplified from wpDNF and need only the beam cut.
			pre = c.dropAt(pre, states[i])
		}
		cur = pre
		out[i] = cur
	}
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
