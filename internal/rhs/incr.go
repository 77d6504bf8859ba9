// Delta-driven incremental re-solving for the tabulation backend.
//
// A Chain retains the last tabulation Result together with an aggregate
// dependency signature — every abstraction parameter some transfer
// application of the run consulted, split by the polarity it observed — and
// a persistent apply-memo mapping (atom, fact) to (result, dependency
// literal). When the CEGAR loop re-solves under a flipped abstraction:
//
//   - If no consulted parameter changed polarity, the retained Result is
//     returned as-is: an O(params/64) check serves the whole solve.
//   - Otherwise the tabulation replays, serving every transfer application
//     whose memoized dependency literal agrees with the new abstraction from
//     the memo (no transfer call) and recomputing — and re-memoizing — only
//     the applications the flip actually touched: the invalidation cone of
//     the parameter delta, at path-edge-derivation granularity.
//
// Determinism argument. The tabulation in SolveBudget is a pure function of
// (supergraph, transfer function, initial fact): its worklist is LIFO, edges
// expand in supergraph order, summaries apply in discovery order, and
// dedup is semantic. A memo entry is served only when its dependency literal
// agrees with the current abstraction, in which case — by the DepTransfer
// contract — its stored result equals what the transfer function would
// return, so a replayed execution is indistinguishable from a cold one:
// same discoveries, same Steps, same provenance, same Witness traces. The
// zero-work fast path returns the Result of exactly that execution.
//
// Unlike dataflow.Chain, the retained Result shares no storage with later
// solves (every run allocates fresh maps), so previously returned Results
// stay valid after the chain moves on.
package rhs

import (
	"tracer/internal/budget"
	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// applyKey identifies one transfer application: the same atom applied to the
// same fact yields the same result under every abstraction agreeing with the
// recorded dependency literal.
type applyKey[D comparable] struct {
	a lang.Atom
	d D
}

// applyVal is one memoized transfer application.
type applyVal[D comparable] struct {
	next D
	lit  int32
}

// Chain is a resumable tabulation solver over one supergraph. Like
// dataflow.Chain it is bound to a single analysis instance (memoized facts
// are interned values of that instance) and is owned by one solve at a time.
type Chain[D comparable] struct {
	g    *Graph
	memo map[applyKey[D]]applyVal[D]

	// Retained last complete run and its aggregate signature.
	complete  bool
	dI        D
	res       *Result[D]
	onW, offW uset.Words

	lastResumed             bool
	lastReused, lastInvalid int
}

// NewChain returns an empty chain for g.
func NewChain[D comparable](g *Graph) *Chain[D] {
	return &Chain[D]{g: g, memo: make(map[applyKey[D]]applyVal[D], 256)}
}

// Solve runs the tabulation under abstraction p from initial fact dI,
// serving it from the retained run when the parameter delta allows. The
// result is byte-equivalent to SolveBudget with the instantiated transfer
// function. A budget trip returns the partial tabulation without retaining
// it (the next Solve replays from the memo).
func (c *Chain[D]) Solve(p uset.Set, dI D, tr dataflow.DepTransfer[D], rec obs.Recorder, b *budget.Budget) *Result[D] {
	pw := chainParamWords(p)
	recording := rec != nil && rec.Enabled()
	if c.complete && dI == c.dI && c.allClean(pw) {
		c.lastResumed, c.lastReused, c.lastInvalid = true, c.res.Steps, 0
		if recording {
			rec.Count(obs.ForwardDeltaResumes, 1)
			if c.lastReused > 0 {
				rec.Count(obs.ForwardDeltaReused, int64(c.lastReused))
			}
		}
		return c.res
	}
	resumed := c.complete && dI == c.dI
	c.lastResumed, c.lastReused, c.lastInvalid = resumed, 0, 0
	c.complete = false
	c.dI = dI
	clearChainWords(c.onW)
	clearChainWords(c.offW)
	wrapped := func(a lang.Atom, d D) D {
		k := applyKey[D]{a, d}
		if v, ok := c.memo[k]; ok {
			if chainLitOK(v.lit, pw) {
				c.orLit(v.lit)
				c.lastReused++
				return v.next
			}
			c.lastInvalid++
		}
		next, lit := tr(a, d)
		c.memo[k] = applyVal[D]{next, lit}
		c.orLit(lit)
		return next
	}
	res := SolveBudget(c.g, dI, wrapped, rec, b)
	if !b.Tripped() {
		c.res = res
		c.complete = true
	}
	if recording {
		if resumed {
			rec.Count(obs.ForwardDeltaResumes, 1)
		}
		if c.lastReused > 0 {
			rec.Count(obs.ForwardDeltaReused, int64(c.lastReused))
		}
		if c.lastInvalid > 0 {
			rec.Count(obs.ForwardDeltaInvalidated, int64(c.lastInvalid))
		}
	}
	return res
}

// Stats reports the delta accounting of the most recent Solve: whether a
// retained run existed to resume from, how many transfer applications were
// served without a transfer call (on the fast path: every path edge of the
// retained run), and how many memo entries the flip invalidated.
func (c *Chain[D]) Stats() (resumed bool, reused, invalidated int) {
	return c.lastResumed, c.lastReused, c.lastInvalid
}

// allClean reports that no parameter the retained run consulted changed
// polarity, so the run is valid under pw as-is.
func (c *Chain[D]) allClean(pw uset.Words) bool {
	for i, w := range c.onW {
		var pv uint64
		if i < len(pw) {
			pv = pw[i]
		}
		if w&^pv != 0 {
			return false
		}
	}
	for i, w := range c.offW {
		var pv uint64
		if i < len(pw) {
			pv = pw[i]
		}
		if w&pv != 0 {
			return false
		}
	}
	return true
}

// orLit folds one dependency literal into the aggregate signature.
func (c *Chain[D]) orLit(lit int32) {
	switch {
	case lit == 0:
	case lit > 0:
		c.onW = setChainWordBit(c.onW, uint32(lit-1))
	default:
		c.offW = setChainWordBit(c.offW, uint32(-lit-1))
	}
}

// chainLitOK reports whether a dependency literal agrees with abstraction pw.
func chainLitOK(lit int32, pw uset.Words) bool {
	switch {
	case lit == 0:
		return true
	case lit > 0:
		return pw.Has(uint32(lit - 1))
	default:
		return !pw.Has(uint32(-lit - 1))
	}
}

func setChainWordBit(w uset.Words, i uint32) uset.Words {
	if int(i>>6) >= len(w) {
		w = w.Grow(int(i) + 1)
	}
	w.SetBit(i)
	return w
}

// chainParamWords converts an abstraction to a bitset for O(1) membership.
func chainParamWords(p uset.Set) uset.Words {
	if len(p) == 0 {
		return nil
	}
	w := uset.MakeWords(p[len(p)-1] + 1)
	for _, k := range p {
		w.SetBit(uint32(k))
	}
	return w
}

func clearChainWords(w uset.Words) {
	for i := range w {
		w[i] = 0
	}
}
