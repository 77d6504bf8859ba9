// Delta-driven incremental re-solving.
//
// The CEGAR loop re-solves one CFG dozens of times under abstractions that
// differ in a handful of parameters. A Chain keeps a per-(node, state)
// expansion memo across its solves: the successor state and dependency
// literal of every out-edge, the literal the chain's reader (Params)
// recorded for the parameter the Step application read. It also keeps the
// Result of its last complete solve and that run's dependency signature.
// Solve then works in one of two ways:
//
//   - If no parameter the last run consulted changed polarity, the retained
//     Result is returned as-is: an O(params/64) check serves the whole solve.
//   - Otherwise SolveBudget's iteration runs from the root. Each dequeue's
//     expansion is served from its (node, state) record when every literal
//     of the record agrees with the new abstraction, and the record is
//     recomputed in place otherwise.
//
// Determinism argument. The chain runs SolveBudget's iteration, and it serves
// a record only when the record's literals agree with p. Each literal is
// what the reader saw the application read, and a Step that read a second
// parameter would have panicked, so the application reads nothing else of
// p: under an agreeing p the record is what the step would return. So a
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
// analysis instance: memo records store interned abstract states, so serving
// them through a different instance (different intern tables) is unsound —
// retain the Chain and its analysis together, and drop both together.
//
// Each Solve returns a Result backed by the chain's retained maps, and the
// next Solve on the same chain invalidates every previously returned Result.
// A Chain is owned by one solve at a time and is not safe for concurrent use.
type Chain[D comparable] struct {
	g *lang.CFG

	// Persistent expansion memo, valid across runs and abstractions. The
	// expansion of (node, state) — successor state and dependency literal
	// per out-edge, in CFG edge order — is a pure fact about the step
	// function, guarded by its literals. expIdx maps the pair to the offset
	// of its record in the recNext/recLit arenas; the record holds one entry
	// per out-edge of the node. A record whose literals disagree with the
	// current abstraction is recomputed and overwritten in place, so the
	// arenas never accumulate garbage.
	expIdx  map[nodeState[D]]int32
	recNext []D
	recLit  []int32

	// The last run, kept only when it completed: its initial state, its
	// Result and its dependency signature.
	complete bool
	init     D
	res      *Result[D]
	sig      DepSig

	work []nodeState[D] // worklist (scratch)

	lastResumed             bool
	lastReused, lastInvalid int
}

// NewChain returns an empty chain for g.
func NewChain[D comparable](g *lang.CFG) *Chain[D] {
	return &Chain[D]{g: g, expIdx: make(map[nodeState[D]]int32, 64)}
}

// Solve runs the forward analysis of step under abstraction p from init,
// serving it from the retained run when no parameter that run read changed
// polarity and replaying it through the expansion memo otherwise. The result
// is byte-equivalent to SolveBudget with At(step, p): same discoveries in the
// same order, same Steps, same provenance. A budget trip returns the partial
// fixpoint, which then owns its maps; the chain keeps only the expansion
// memo, so the next Solve replays from the root.
func (c *Chain[D]) Solve(p uset.Set, init D, step Step[D], b *budget.Budget) *Result[D] {
	pw := ParamWords(p)
	resumed := c.complete && init == c.init
	if resumed && c.sig.Agrees(pw) {
		c.lastResumed, c.lastReused, c.lastInvalid = true, c.res.Steps, 0
		return c.res
	}
	c.lastResumed, c.lastReused, c.lastInvalid = resumed, 0, 0
	c.complete, c.init = false, init
	c.sig.Reset()
	g := c.g
	res := c.res
	c.res = nil
	if res == nil {
		res = newResult[D](g)
	} else {
		clear(res.seen)
		for i := range res.byNode {
			res.byNode[i] = res.byNode[i][:0]
		}
	}
	root := nodeState[D]{g.Entry, init}
	res.seen[root] = origin[D]{root: true}
	res.byNode[g.Entry] = append(res.byNode[g.Entry], init)
	res.Steps = 1
	work := append(c.work[:0], root)
	r := NewParams(pw)
	for len(work) > 0 {
		if !b.Poll() {
			// The partial Result escapes with sole ownership of its maps.
			c.work = work[:0]
			return res
		}
		it := work[len(work)-1]
		work = work[:len(work)-1]
		out := g.Out[it.node]
		start := c.expand(it, len(out), r, step)
		for i, ei := range out {
			e := g.Edges[ei]
			c.sig.Add(c.recLit[start+i])
			key := nodeState[D]{e.To, c.recNext[start+i]}
			if _, seen := res.seen[key]; seen {
				continue
			}
			res.seen[key] = origin[D]{pred: it.node, predState: it.state, atom: e.A}
			res.byNode[e.To] = append(res.byNode[e.To], key.state)
			res.Steps++
			work = append(work, key)
		}
	}
	c.work = work
	c.res, c.complete = res, true
	return res
}

// expand returns the arena offset of the record of it, whose node has n
// out-edges. The record is served when every literal in it agrees with r's
// abstraction, and computed through r otherwise: in place when it exists,
// appended to the arenas when it is new.
func (c *Chain[D]) expand(it nodeState[D], n int, r *Params, step Step[D]) int {
	s, known := c.expIdx[it]
	start := int(s)
	if known {
		clean := true
		for _, lit := range c.recLit[start : start+n] {
			if !LitAgrees(lit, r.w) {
				clean = false
				break
			}
		}
		if clean {
			c.lastReused++
			return start
		}
		c.lastInvalid++
	} else {
		start = len(c.recNext)
		c.expIdx[it] = int32(start)
		var zero D
		for range n {
			c.recNext = append(c.recNext, zero)
			c.recLit = append(c.recLit, 0)
		}
	}
	for i, ei := range c.g.Out[it.node] {
		e := c.g.Edges[ei]
		next, lit := it.state, int32(0)
		if e.A != nil {
			next, lit = Apply(r, step, e.A, it.state)
		}
		c.recNext[start+i], c.recLit[start+i] = next, lit
	}
	return start
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
