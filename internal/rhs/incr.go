// Delta-driven incremental re-solving for the tabulation backend.
//
// A Chain retains the last tabulation Result together with its dependency
// signature (a dataflow.DepSig: every abstraction parameter some transfer
// application of the run read, split by the polarity it observed) and a
// persistent apply-memo mapping (atom, fact) to (result, dependency
// literal), the literal the chain's reader (dataflow.Params) recorded for
// the parameter the Step application read. When the CEGAR loop re-solves
// under a flipped abstraction:
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
// agrees with the current abstraction. The literal is what the reader saw
// the application read, and a Step that read a second parameter would have
// panicked, so the stored result equals what the step would return, and a
// replayed execution is indistinguishable from a cold one:
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

	// Retained last complete run and its dependency signature.
	complete bool
	dI       D
	res      *Result[D]
	sig      dataflow.DepSig

	lastResumed             bool
	lastReused, lastInvalid int
}

// NewChain returns an empty chain for g.
func NewChain[D comparable](g *Graph) *Chain[D] {
	return &Chain[D]{g: g, memo: make(map[applyKey[D]]applyVal[D], 256)}
}

// Solve runs the tabulation of step under abstraction p from initial fact
// dI, serving it from the retained run when the parameter delta allows. The
// result is byte-equivalent to SolveBudget with dataflow.At(step, p). A
// budget trip returns the partial tabulation without retaining it (the next
// Solve replays from the memo). rec receives the tabulation's own telemetry
// (see SolveBudget); the delta accounting is read back with Stats.
func (c *Chain[D]) Solve(p uset.Set, dI D, step dataflow.Step[D], rec obs.Recorder, b *budget.Budget) *Result[D] {
	pw := dataflow.ParamWords(p)
	resumed := c.complete && dI == c.dI
	if resumed && c.sig.Agrees(pw) {
		c.lastResumed, c.lastReused, c.lastInvalid = true, c.res.Steps, 0
		return c.res
	}
	c.lastResumed, c.lastReused, c.lastInvalid = resumed, 0, 0
	c.complete, c.dI = false, dI
	c.sig.Reset()
	r := dataflow.NewParams(pw)
	wrapped := func(a lang.Atom, d D) D {
		k := applyKey[D]{a, d}
		if v, ok := c.memo[k]; ok {
			if dataflow.LitAgrees(v.lit, pw) {
				c.sig.Add(v.lit)
				c.lastReused++
				return v.next
			}
			c.lastInvalid++
		}
		next, lit := dataflow.Apply(r, step, a, d)
		c.memo[k] = applyVal[D]{next, lit}
		c.sig.Add(lit)
		return next
	}
	res := SolveBudget(c.g, dI, wrapped, rec, b)
	if !b.Tripped() {
		c.res = res
		c.complete = true
	}
	return res
}

// Stats reports the delta accounting of the most recent Solve: whether a
// complete retained run from the same initial fact existed, how many
// transfer applications were served from the memo without a transfer call
// (on the fast path: every path edge of the retained run), and how many
// memo entries were recomputed because their literal disagreed with the
// abstraction.
func (c *Chain[D]) Stats() (resumed bool, reused, invalidated int) {
	return c.lastResumed, c.lastReused, c.lastInvalid
}
