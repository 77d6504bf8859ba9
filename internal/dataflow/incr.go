// Delta-driven incremental re-solving.
//
// The CEGAR loop re-solves one CFG dozens of times under abstractions that
// differ in a handful of parameters. A Chain keeps one Result for its life:
// a pair table that numbers every (node, state) pair the first time the
// chain meets it, with each pair's discovery record stamped by the run that
// made it. Over those pair numbers it keeps a per-pair expansion memo: the
// successor pair and dependency literal of every out-edge, the literal the
// chain's reader (Params) recorded for the parameter the Step application
// read. It also keeps the dependency signature of its last complete run.
// Solve then works in one of two ways:
//
//   - If no parameter the last run consulted changed polarity, the retained
//     Result is returned as-is: an O(params/64) check serves the whole solve.
//   - Otherwise a new run starts (the generation advances, retiring every
//     discovery of the last run) and SolveBudget's iteration runs from the
//     root. Each dequeue's expansion is served from its pair's record when
//     every literal of the record agrees with the new abstraction, and the
//     record is recomputed in place otherwise. Serving a record and
//     recording a discovery read and write slices only; the pair table's map
//     is touched only when a record is computed, to number its successors.
//
// Determinism argument. The chain runs SolveBudget's iteration, and it serves
// a record only when the record's literals agree with p. Each literal is
// what the reader saw the application read, and a Step that read a second
// parameter would have panicked, so the application reads nothing else of
// p: under an agreeing p the record is what the step would return, and its
// pair numbers name exactly the successors SolveBudget would look up. So a
// solve makes the discoveries of SolveBudget in the same order: same Steps,
// same provenance, same Witness traces. The fast path returns the Result of
// exactly that execution.
package dataflow

import (
	"tracer/internal/budget"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// ParamWords converts an abstraction to a bitset for O(1) membership. Bits
// beyond the top parameter read as unset, matching Has.
func ParamWords(p uset.Set) uset.Words {
	if len(p) == 0 {
		return nil
	}
	w := uset.MakeWords(p[len(p)-1] + 1)
	for _, k := range p {
		w.SetBit(uint32(k))
	}
	return w
}

// LitAgrees reports whether a dependency literal (see Apply) agrees with
// abstraction pw.
func LitAgrees(lit int32, pw uset.Words) bool {
	switch {
	case lit == 0:
		return true
	case lit > 0:
		return pw.Has(uint32(lit - 1))
	default:
		return !pw.Has(uint32(-lit - 1))
	}
}

// DepSig is the dependency signature of a run: every parameter some transfer
// application of the run read, split by the polarity it observed. The
// run is valid as-is under every abstraction the signature agrees with. Both
// delta chains keep one.
type DepSig struct{ on, off uset.Words }

// Reset empties the signature, keeping its storage.
func (s *DepSig) Reset() {
	clear(s.on)
	clear(s.off)
}

// Add folds one dependency literal into the signature.
func (s *DepSig) Add(lit int32) {
	switch {
	case lit > 0:
		s.on = setBit(s.on, uint32(lit-1))
	case lit < 0:
		s.off = setBit(s.off, uint32(-lit-1))
	}
}

// Agrees reports whether no parameter of the signature changed polarity
// under pw: every parameter read ON is in pw and no parameter read OFF is.
func (s *DepSig) Agrees(pw uset.Words) bool {
	for i, w := range s.on {
		var pv uint64
		if i < len(pw) {
			pv = pw[i]
		}
		if w&^pv != 0 {
			return false
		}
	}
	return !s.off.Intersects(pw)
}

func setBit(w uset.Words, i uint32) uset.Words {
	if int(i>>6) >= len(w) {
		w = w.Grow(int(i) + 1)
	}
	w.SetBit(i)
	return w
}

// Chain is a resumable forward solver over one CFG. It is bound to a single
// analysis instance: memo records and the pair table store interned abstract
// states, so serving them through a different instance (different intern
// tables) is unsound — retain the Chain and its analysis together, and drop
// both together.
//
// Every Solve returns the chain's one Result, which stays valid until the
// chain's next Solve, tripped or not. A Chain is owned by one solve at a
// time and is not safe for concurrent use.
type Chain[D comparable] struct {
	g   *lang.CFG
	res *Result[D]

	// Persistent expansion memo, valid across runs and abstractions. The
	// expansion of a pair — successor pair and dependency literal per
	// out-edge, in CFG edge order — is a pure fact about the step function,
	// guarded by its literals. rec[i] is the offset in memo of pair i's
	// record, which holds one entry per out-edge of its node, or -1 while
	// pair i has none. A record whose literals disagree with the current
	// abstraction is recomputed and overwritten in place, so memo never
	// accumulates garbage.
	rec  []int32
	memo []memoEdge

	// The last run's initial state and dependency signature; complete
	// reports whether it ran to its fixpoint.
	complete bool
	init     D
	sig      DepSig

	work []int32 // worklist of pair numbers (scratch)

	lastResumed             bool
	lastReused, lastInvalid int
}

// memoEdge is one out-edge of a memo record: the successor's pair number and
// the application's dependency literal.
type memoEdge struct{ next, lit int32 }

// NewChain returns an empty chain for g.
func NewChain[D comparable](g *lang.CFG) *Chain[D] {
	return &Chain[D]{g: g, res: newResult[D](g)}
}

// Solve runs the forward analysis of step under abstraction p from init,
// serving it from the retained run when no parameter that run read changed
// polarity and replaying it through the expansion memo otherwise. The result
// is byte-equivalent to SolveBudget with At(step, p): same discoveries in the
// same order, same Steps, same provenance. A budget trip returns the partial
// fixpoint; the next Solve replays from the root.
func (c *Chain[D]) Solve(p uset.Set, init D, step Step[D], b *budget.Budget) *Result[D] {
	pw := ParamWords(p)
	res := c.res
	resumed := c.complete && init == c.init
	if resumed && c.sig.Agrees(pw) {
		c.lastResumed, c.lastReused, c.lastInvalid = true, res.Steps, 0
		return res
	}
	c.lastResumed, c.lastReused, c.lastInvalid = resumed, 0, 0
	c.complete, c.init = false, init
	c.sig.Reset()
	work := append(c.work[:0], res.start(init))
	r := NewParams(pw)
	for len(work) > 0 {
		if !b.Poll() {
			c.work = work[:0]
			return res
		}
		i := work[len(work)-1]
		work = work[:len(work)-1]
		out := c.g.Out[res.pairs[i].node]
		rec := c.expand(i, out, r, step)
		for k, ei := range out {
			m := rec[k]
			c.sig.Add(m.lit)
			if res.discover(m.next, i, int32(ei)) {
				work = append(work, m.next)
			}
		}
	}
	c.work = work
	c.complete = true
	return res
}

// expand returns the memo record of pair i, whose node's out-edges are out.
// The record is served when every literal in it agrees with r's
// abstraction, and computed through r otherwise: in place when it exists,
// appended to memo when it is new. A new record is published only once it
// is complete, so a Step that panics leaves no half-made record behind.
func (c *Chain[D]) expand(i int32, out []int, r *Params, step Step[D]) []memoEdge {
	if int(i) < len(c.rec) && c.rec[i] >= 0 {
		rec := c.memo[c.rec[i]:][:len(out)]
		clean := true
		for _, m := range rec {
			if !LitAgrees(m.lit, r.w) {
				clean = false
				break
			}
		}
		if clean {
			c.lastReused++
			return rec
		}
		c.lastInvalid++
		c.fill(rec, i, out, r, step)
		return rec
	}
	start := len(c.memo)
	c.memo = append(c.memo, make([]memoEdge, len(out))...)
	rec := c.memo[start:]
	c.fill(rec, i, out, r, step)
	for len(c.rec) <= int(i) {
		c.rec = append(c.rec, -1)
	}
	c.rec[i] = int32(start)
	return rec
}

// fill computes pair i's record through r: it applies step along every
// out-edge and numbers each successor pair.
func (c *Chain[D]) fill(rec []memoEdge, i int32, out []int, r *Params, step Step[D]) {
	d := c.res.pairs[i].state
	for k, ei := range out {
		e := c.g.Edges[ei]
		next, lit := d, int32(0)
		if e.A != nil {
			next, lit = Apply(r, step, e.A, d)
		}
		j, _ := c.res.number(e.To, next)
		rec[k] = memoEdge{j, lit}
	}
}

// Stats reports the delta accounting of the most recent Solve: whether a
// complete retained run from the same initial state existed, how many
// expansions were served from the memo without a transfer call (on the fast
// path: every discovery of the retained run, its Steps), and how many memo
// records were recomputed because one of their literals disagreed with the
// abstraction.
func (c *Chain[D]) Stats() (resumed bool, reused, invalidated int) {
	return c.lastResumed, c.lastReused, c.lastInvalid
}
