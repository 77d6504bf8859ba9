// Delta-driven incremental re-solving.
//
// The CEGAR loop re-solves one CFG dozens of times under abstractions that
// differ in a handful of parameters. A Chain retains the complete execution
// of its last solve — the discovery sequence, the dequeue order, and a
// per-(node, state) expansion memo tagged with dependency literals naming
// the abstraction parameters each transfer application actually consulted —
// and, when asked to solve under a flipped abstraction, validates the
// retained execution against the flip and resumes from the first divergent
// dequeue instead of starting cold.
//
// Determinism argument. The chaotic iteration in SolveBudget is a pure
// function of (CFG, abstraction, initial state): the worklist is LIFO, edges
// are expanded in CFG order, and discovery dedup is semantic equality. A
// Chain replays that exact function: a memo record is served only when its
// dependency literals agree with the new abstraction, in which case the
// recorded successor states are — by the DepTransfer contract — what the
// transfer function would have returned; and the retained execution prefix
// before the first dirty dequeue is exactly the prefix a cold solve under
// the new abstraction would produce, so reconstructing the worklist at that
// point (the discoveries not yet dequeued, in push order) and continuing
// yields an execution indistinguishable from the cold one: same discovery
// sequence, same Steps, same provenance, same Witness traces.
package dataflow

import (
	"tracer/internal/budget"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// DepTransfer is a Transfer that additionally reports which abstraction
// parameter the application consulted, as a signed dependency literal:
// 0 when the result is independent of the abstraction, +(k+1) when
// parameter k was consulted and was ON in the instantiating abstraction,
// -(k+1) when parameter k was consulted and was OFF. The contract is exact:
// applying the same atom to the same state under any abstraction p' that
// agrees with the literal (p'.Has(k) iff the literal is positive) must
// produce the same result. Both analysis clients consult at most one
// parameter per application, which is what makes a single literal
// sufficient; a client that consulted several would need the rhs-style
// literal lists instead.
type DepTransfer[D comparable] func(a lang.Atom, d D) (D, int32)

// DepLit encodes "parameter param was consulted under p" as a dependency
// literal for a DepTransfer result.
func DepLit(p uset.Set, param int) int32 {
	if p.Has(param) {
		return int32(param) + 1
	}
	return -(int32(param) + 1)
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
	// per out-edge, in CFG edge order — is a pure fact about the transfer
	// function, guarded by its literals. expIdx maps the pair to a record;
	// recStart[ri] is the record's offset into the recNext/recLit arenas
	// (records are allocated contiguously, so a record ends where the next
	// begins). A record whose literals disagree with the current abstraction
	// is recomputed and overwritten in place — same node, same out-degree —
	// so the arenas never accumulate garbage.
	expIdx   map[nodeState[D]]int32
	recStart []int32
	recNext  []D
	recLit   []int32

	// Retained execution of the last run, meaningful only when complete.
	complete bool
	init     D
	res      *Result[D]
	seq      []nodeState[D] // discoveries, in discovery order
	dqPos    []int32        // per discovery: its dequeue position
	deq      []int32        // per dequeue position: discovery index dequeued
	nDisc    []int32        // per dequeue position: len(seq) before the dequeue
	recOf    []int32        // per dequeue position: record served or computed

	// Aggregate dependency signature of the last run: every parameter some
	// used record consulted, split by the polarity it observed. The run is
	// valid as-is under p' iff onW ⊆ p' and offW ∩ p' = ∅ — an O(params/64)
	// check that skips even the validation scan when the flip touched only
	// parameters the run never consulted.
	onW, offW uset.Words

	work []int32 // worklist of discovery indices (scratch)

	lastResumed             bool
	lastReused, lastInvalid int
}

// NewChain returns an empty chain for g.
func NewChain[D comparable](g *lang.CFG) *Chain[D] {
	return &Chain[D]{g: g, expIdx: make(map[nodeState[D]]int32, 64)}
}

// Solve runs the forward analysis under abstraction p from init, reusing as
// much of the previous run as the parameter delta allows. The result is
// byte-equivalent to SolveBudget with the instantiated transfer function:
// same discoveries in the same order, same Steps, same provenance. A budget
// trip poisons the retained run (the next Solve starts cold, keeping only
// the expansion memo) and returns the partial fixpoint, which then owns its
// maps.
func (c *Chain[D]) Solve(p uset.Set, init D, tr DepTransfer[D], b *budget.Budget) *Result[D] {
	pw := paramWords(p)
	c.lastResumed, c.lastReused, c.lastInvalid = false, 0, 0
	if c.complete && init == c.init {
		if c.allClean(pw) {
			c.lastResumed = true
			c.lastReused = len(c.seq)
			return c.res
		}
		if t := c.firstDirty(pw); t >= 0 {
			c.lastResumed = true
			return c.resume(pw, tr, b, t)
		}
		// The aggregate signature is exact at record granularity, so a
		// failed fast path always yields a dirty dequeue; this is defensive.
		c.lastResumed = true
		c.lastReused = len(c.seq)
		return c.res
	}
	return c.cold(pw, init, tr, b)
}

// Stats reports the delta accounting of the most recent Solve: whether the
// delta path served it (a retained run existed and was validated), how many
// discoveries survived validation or were served from the memo without a
// transfer call, and how many were rolled back.
func (c *Chain[D]) Stats() (resumed bool, reused, invalidated int) {
	return c.lastResumed, c.lastReused, c.lastInvalid
}

// cold starts a fresh execution, reusing retained allocations and the
// expansion memo (serving a memo record in a cold run is still sound — its
// literals are checked against the current abstraction like any other).
func (c *Chain[D]) cold(pw uset.Words, init D, tr DepTransfer[D], b *budget.Budget) *Result[D] {
	g := c.g
	c.complete = false
	c.init = init
	if c.res == nil {
		c.res = newResult[D](g)
	} else {
		clear(c.res.seen)
		for i := range c.res.byNode {
			c.res.byNode[i] = c.res.byNode[i][:0]
		}
		c.res.Steps = 0
	}
	c.seq, c.dqPos = c.seq[:0], c.dqPos[:0]
	c.deq, c.nDisc, c.recOf = c.deq[:0], c.nDisc[:0], c.recOf[:0]
	clearWords(c.onW)
	clearWords(c.offW)
	c.work = c.work[:0]
	key := nodeState[D]{g.Entry, init}
	c.res.seen[key] = origin[D]{root: true}
	c.res.byNode[g.Entry] = append(c.res.byNode[g.Entry], init)
	c.seq = append(c.seq, key)
	c.dqPos = append(c.dqPos, -1)
	c.work = append(c.work, 0)
	return c.finish(pw, tr, b)
}

// resume rolls the retained execution back to dequeue position t — the
// first whose record disagrees with the new abstraction — and continues.
// The discoveries made by the first t dequeues (a prefix of seq, since
// discovery order is monotone in dequeue order) survive; later ones are
// removed from the provenance map and the per-node slices in reverse
// discovery order, which keeps each per-node slice a pop-only truncation.
// The worklist at time t is exactly the surviving discoveries not yet
// dequeued by then, bottom-to-top in discovery (= push) order.
func (c *Chain[D]) resume(pw uset.Words, tr DepTransfer[D], b *budget.Budget, t int) *Result[D] {
	nT := int(c.nDisc[t])
	c.lastInvalid = len(c.seq) - nT
	// When almost nothing survives, rolling back entry-by-entry costs more
	// than replaying the run from the root: a replay still serves every
	// clean record from the expansion memo without a transfer call, and
	// clearing the provenance map wholesale beats deleting nearly all of its
	// keys one hash at a time. Either path reconstructs the identical
	// execution; only the accounting of "reused" shifts from
	// surviving-prefix discoveries to memo-served dequeues.
	if nT*8 < len(c.seq) {
		c.lastReused = 0
		return c.cold(pw, c.init, tr, b)
	}
	c.lastReused = nT
	for j := len(c.seq) - 1; j >= nT; j-- {
		key := c.seq[j]
		delete(c.res.seen, key)
		bn := c.res.byNode[key.node]
		c.res.byNode[key.node] = bn[:len(bn)-1]
	}
	c.seq = c.seq[:nT]
	c.dqPos = c.dqPos[:nT]
	c.deq = c.deq[:t]
	c.nDisc = c.nDisc[:t]
	c.recOf = c.recOf[:t]
	c.work = c.work[:0]
	for j := 0; j < nT; j++ {
		if c.dqPos[j] >= int32(t) {
			c.work = append(c.work, int32(j))
		}
	}
	c.complete = false
	return c.finish(pw, tr, b)
}

// finish drains the worklist, serving expansions from clean memo records
// and computing (and recording) the rest, then marks the run complete.
func (c *Chain[D]) finish(pw uset.Words, tr DepTransfer[D], b *budget.Budget) *Result[D] {
	g := c.g
	for len(c.work) > 0 {
		if !b.Poll() {
			// Poison the retained run: it no longer describes a completed
			// execution, and the escaping partial Result takes sole
			// ownership of the maps. The expansion memo survives.
			res := c.res
			res.Steps = len(c.seq)
			c.res = nil
			c.seq, c.dqPos, c.deq, c.nDisc, c.recOf, c.work = nil, nil, nil, nil, nil, nil
			c.onW, c.offW = nil, nil
			c.complete = false
			return res
		}
		j := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		it := c.seq[j]
		c.dqPos[j] = int32(len(c.deq))
		c.deq = append(c.deq, j)
		c.nDisc = append(c.nDisc, int32(len(c.seq)))
		out := g.Out[it.node]
		ri, known := c.expIdx[it]
		recompute := !known
		if known && !c.recClean(ri, pw) {
			recompute = true
		}
		if !known {
			ri = int32(len(c.recStart))
			c.recStart = append(c.recStart, int32(len(c.recNext)))
			var zero D
			for range out {
				c.recNext = append(c.recNext, zero)
				c.recLit = append(c.recLit, 0)
			}
			c.expIdx[it] = ri
		}
		start := c.recStart[ri]
		if recompute {
			for i, ei := range out {
				e := g.Edges[ei]
				next, lit := it.state, int32(0)
				if e.A != nil {
					next, lit = tr(e.A, it.state)
				}
				c.recNext[start+int32(i)] = next
				c.recLit[start+int32(i)] = lit
			}
		} else if c.lastResumed {
			c.lastReused++
		}
		c.recOf = append(c.recOf, ri)
		for i, ei := range out {
			e := g.Edges[ei]
			c.orLit(c.recLit[start+int32(i)])
			c.propagate(e.To, c.recNext[start+int32(i)], it, e.A)
		}
	}
	c.complete = true
	c.res.Steps = len(c.seq)
	return c.res
}

// propagate records a successor discovery, mirroring SolveBudget exactly.
func (c *Chain[D]) propagate(to int, next D, from nodeState[D], atom lang.Atom) {
	key := nodeState[D]{to, next}
	if _, seen := c.res.seen[key]; seen {
		return
	}
	c.res.seen[key] = origin[D]{pred: from.node, predState: from.state, atom: atom}
	c.res.byNode[to] = append(c.res.byNode[to], next)
	c.seq = append(c.seq, key)
	c.dqPos = append(c.dqPos, -1)
	c.work = append(c.work, int32(len(c.seq)-1))
}

// firstDirty scans the retained run's dequeues in order against the new
// abstraction, rebuilding the aggregate signature over the clean prefix,
// and returns the first dequeue position whose record disagrees (-1 if
// none).
func (c *Chain[D]) firstDirty(pw uset.Words) int {
	clearWords(c.onW)
	clearWords(c.offW)
	for t := 0; t < len(c.deq); t++ {
		start, end := c.recBounds(c.recOf[t])
		for k := start; k < end; k++ {
			if !litOK(c.recLit[k], pw) {
				return t
			}
		}
		for k := start; k < end; k++ {
			c.orLit(c.recLit[k])
		}
	}
	return -1
}

// recBounds returns the arena extent of record ri.
func (c *Chain[D]) recBounds(ri int32) (int32, int32) {
	start := c.recStart[ri]
	if int(ri)+1 < len(c.recStart) {
		return start, c.recStart[ri+1]
	}
	return start, int32(len(c.recLit))
}

// recClean reports whether every literal of record ri agrees with pw.
func (c *Chain[D]) recClean(ri int32, pw uset.Words) bool {
	start, end := c.recBounds(ri)
	for k := start; k < end; k++ {
		if !litOK(c.recLit[k], pw) {
			return false
		}
	}
	return true
}

// allClean is the aggregate fast path: no parameter the last run consulted
// changed polarity.
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
		c.onW = setWordBit(c.onW, uint32(lit-1))
	default:
		c.offW = setWordBit(c.offW, uint32(-lit-1))
	}
}

func setWordBit(w uset.Words, i uint32) uset.Words {
	if int(i>>6) >= len(w) {
		w = w.Grow(int(i) + 1)
	}
	w.SetBit(i)
	return w
}

// litOK reports whether a dependency literal agrees with abstraction pw.
func litOK(lit int32, pw uset.Words) bool {
	switch {
	case lit == 0:
		return true
	case lit > 0:
		return pw.Has(uint32(lit - 1))
	default:
		return !pw.Has(uint32(-lit - 1))
	}
}

// paramWords converts an abstraction to a bitset for O(1) membership during
// validation. Bits beyond the top parameter read as unset, matching Has.
func paramWords(p uset.Set) uset.Words {
	if len(p) == 0 {
		return nil
	}
	w := uset.MakeWords(p[len(p)-1] + 1)
	for _, k := range p {
		w.SetBit(uint32(k))
	}
	return w
}

func clearWords(w uset.Words) {
	for i := range w {
		w[i] = 0
	}
}
