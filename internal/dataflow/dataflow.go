// Package dataflow implements the parametric dataflow framework of §3.2.
//
// A parametric analysis is specified by a set of abstractions P with a cost
// preorder, a finite set of abstract states D, and a transfer function
// [a]p : D → D for each atomic command a (Fig 4 and Fig 5 are the two
// instances). The analysis is disjunctive: a program denotes a transformer
// on sets of abstract states (Fig 3), and by Lemma 1 every reachable final
// state has a loop-free witness trace. The solver here records provenance
// for each (node, state) pair it discovers so that witness traces — the
// abstract counterexamples consumed by the backward meta-analysis — can be
// reconstructed in time linear in their length.
package dataflow

import (
	"fmt"

	"tracer/internal/budget"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// Transfer is an instantiated transfer function λa,d. [a]p(d): the
// abstraction p has already been supplied (see At).
type Transfer[D comparable] func(a lang.Atom, d D) D

// Step is a client's transfer function [a]p(d), reading the abstraction p
// through r. An application may read at most one parameter, any number of
// times; r records which one and in which polarity, so every consumer that
// needs the dependency (the delta chains) reads it off the application
// instead of trusting a second statement of it.
type Step[D comparable] func(r *Params, a lang.Atom, d D) D

// Params is the abstraction as a Step reads it: a bitset of the parameters
// that are on, and the signed literal of the parameter the current
// application read. A reader belongs to one run at a time.
type Params struct {
	w   uset.Words
	lit int32
}

// NewParams returns a reader of the abstraction whose bitset is pw (see
// ParamWords).
func NewParams(pw uset.Words) *Params { return &Params{w: pw} }

// Has reports whether parameter k is on, and records the read: +(k+1) when
// k is on, -(k+1) when it is off. A read of a second, different parameter
// within one application panics and names both.
func (r *Params) Has(k int) bool {
	on := r.w.Has(uint32(k))
	lit := int32(k) + 1
	if !on {
		lit = -lit
	}
	if r.lit != lit && r.lit != 0 {
		prev := r.lit
		if prev < 0 {
			prev = -prev
		}
		panic(fmt.Sprintf("dataflow: one transfer application read parameters %d and %d; a Step may read at most one", prev-1, k))
	}
	r.lit = lit
	return on
}

// Apply applies step to atom a and state d under r's abstraction. It
// returns the successor and the signed literal of the parameter the
// application read: 0 when it read none, +(k+1) when it read parameter k on,
// -(k+1) when it read k off. Applying a to d under any abstraction that
// agrees with the literal gives the same successor.
func Apply[D comparable](r *Params, step Step[D], a lang.Atom, d D) (D, int32) {
	r.lit = 0
	next := step(r, a, d)
	return next, r.lit
}

// At instantiates step at abstraction p. The Transfer owns one reader, so
// like the analysis instance behind step it is not safe for concurrent use.
func At[D comparable](step Step[D], p uset.Set) Transfer[D] {
	r := NewParams(ParamWords(p))
	return func(a lang.Atom, d D) D {
		next, _ := Apply(r, step, a, d)
		return next
	}
}

// EvalProg evaluates Fp[s](D0) per Fig 3, directly on the structured
// program. Loops are least fixpoints in the powerset order. It is the
// executable specification against which the CFG solver is tested.
func EvalProg[D comparable](p lang.Prog, init map[D]bool, tr Transfer[D]) map[D]bool {
	switch p := p.(type) {
	case lang.Skip:
		return copySet(init)
	case lang.Atomic:
		out := make(map[D]bool, len(init))
		for d := range init {
			out[tr(p.A, d)] = true
		}
		return out
	case lang.Seq:
		return EvalProg(p.Snd, EvalProg(p.Fst, init, tr), tr)
	case lang.Choice:
		out := EvalProg(p.Left, init, tr)
		for d := range EvalProg(p.Right, init, tr) {
			out[d] = true
		}
		return out
	case lang.Star:
		cur := copySet(init)
		for {
			next := EvalProg(p.Body, cur, tr)
			grew := false
			for d := range next {
				if !cur[d] {
					cur[d] = true
					grew = true
				}
			}
			if !grew {
				return cur
			}
		}
	}
	panic("dataflow: unknown program form")
}

// EvalTrace evaluates Fp[t](d) per Fig 3 on a single trace.
func EvalTrace[D comparable](t lang.Trace, d D, tr Transfer[D]) D {
	for _, a := range t {
		d = tr(a, d)
	}
	return d
}

// StatesAlong returns the length len(t)+1 sequence of abstract states
// visited while evaluating trace t from d: states[i] is the state before
// atom t[i]. The backward meta-analysis needs these pre-states for its
// under-approximation operator (Fig 7 threads Fp[t](d) through B).
func StatesAlong[D comparable](t lang.Trace, d D, tr Transfer[D]) []D {
	out := make([]D, len(t)+1)
	out[0] = d
	for i, a := range t {
		out[i+1] = tr(a, out[i])
	}
	return out
}

func copySet[D comparable](s map[D]bool) map[D]bool {
	out := make(map[D]bool, len(s))
	for d := range s {
		out[d] = true
	}
	return out
}

// nodeState is a (node, state) pair, the key of a pair table's numbering.
type nodeState[D comparable] struct {
	node  int
	state D
}

// pair is one numbered (node, state) pair and its discovery record. The
// record belongs to the run whose generation run holds; under any other
// generation the pair is undiscovered.
type pair[D comparable] struct {
	state D
	node  int32
	run   uint32 // generation of the run that discovered the pair
	pred  int32  // pair number it was discovered from; -1 at the root
	edge  int32  // CFG edge it was discovered along; -1 at the root
}

// Result holds the states computed at every CFG node along with provenance.
// It numbers every (node, state) pair densely the first time it meets one,
// in one map, and keeps each pair's key and discovery record in one slice
// indexed by that number. A run's discoveries are the pairs stamped with its
// generation, so starting a new run over the same table is a counter bump:
// a Chain keeps one Result for its life, and its expansion memo addresses
// successors by pair number, so it discovers without hashing. A per-node
// slice gives O(states at n) enumeration. A Result that a Chain returns is
// valid until the chain's next Solve; one that SolveBudget returns is the
// caller's.
type Result[D comparable] struct {
	g      *lang.CFG
	id     map[nodeState[D]]int32
	pairs  []pair[D]
	run    uint32
	byNode [][]D
	// Steps counts (node, state) discoveries, a machine-independent cost
	// measure used by the benchmark harness.
	Steps int
}

// States returns the abstract states reaching node n, in discovery order.
// The slice is shared with the result and must not be mutated.
func (r *Result[D]) States(n int) []D {
	return r.byNode[n]
}

// newResult returns an empty pair table over g. Its capacity is a bounded
// guess from the CFG size.
func newResult[D comparable](g *lang.CFG) *Result[D] {
	hint := max(min(g.Nodes, 1024), 64)
	return &Result[D]{
		g:      g,
		id:     make(map[nodeState[D]]int32, hint),
		pairs:  make([]pair[D], 0, hint),
		byNode: make([][]D, g.Nodes),
	}
}

// number returns the pair number of (n, d), numbering the pair when it is
// new to the table, and reports whether it was.
func (r *Result[D]) number(n int, d D) (int32, bool) {
	k := nodeState[D]{n, d}
	if i, ok := r.id[k]; ok {
		return i, false
	}
	i := int32(len(r.pairs))
	r.id[k] = i
	r.pairs = append(r.pairs, pair[D]{state: d, node: int32(n)})
	return i, true
}

// start begins a new run from init at the entry node and returns the root's
// pair number. Advancing the generation retires every discovery of the
// previous run; when the generation wraps, the stamps are cleared so that
// none can match a later run.
func (r *Result[D]) start(init D) int32 {
	r.run++
	if r.run == 0 {
		for i := range r.pairs {
			r.pairs[i].run = 0
		}
		r.run = 1
	}
	for i := range r.byNode {
		r.byNode[i] = r.byNode[i][:0]
	}
	r.Steps = 0
	root, _ := r.number(r.g.Entry, init)
	r.discover(root, -1, -1)
	return root
}

// discover records that this run reached pair i from pair pred along edge,
// and reports whether i is new to the run.
func (r *Result[D]) discover(i, pred, edge int32) bool {
	p := &r.pairs[i]
	if p.run == r.run {
		return false
	}
	p.run, p.pred, p.edge = r.run, pred, edge
	r.byNode[p.node] = append(r.byNode[p.node], p.state)
	r.Steps++
	return true
}

// lookup returns the pair number of (n, d) if this run discovered it.
func (r *Result[D]) lookup(n int, d D) (int32, bool) {
	i, ok := r.id[nodeState[D]{n, d}]
	return i, ok && r.pairs[i].run == r.run
}

// Has reports whether state d reaches node n.
func (r *Result[D]) Has(n int, d D) bool {
	_, ok := r.lookup(n, d)
	return ok
}

// Witness reconstructs an abstract counterexample trace ending at node n in
// state d: a loop-free walk through the (node, state) discovery graph, as
// guaranteed by Lemma 1. It panics if (n, d) was not reached.
func (r *Result[D]) Witness(n int, d D) lang.Trace {
	i, ok := r.lookup(n, d)
	if !ok {
		panic(fmt.Sprintf("dataflow: no witness for state %v at node %d", d, n))
	}
	// Two walks back to the root: one to size the trace, one to fill it
	// from its end.
	k := 0
	for p := r.pairs[i]; p.pred >= 0; p = r.pairs[p.pred] {
		if r.g.Edges[p.edge].A != nil {
			k++
		}
	}
	out := make(lang.Trace, k)
	for p := r.pairs[i]; p.pred >= 0; p = r.pairs[p.pred] {
		if a := r.g.Edges[p.edge].A; a != nil {
			k--
			out[k] = a
		}
	}
	return out
}

// SolveBudget runs the disjunctive forward analysis over the CFG from the
// initial state at the entry node. ε edges propagate states unchanged. The
// solver is a chaotic worklist iteration; since D is finite for the analyses
// in this repository, it terminates. It is the cold reference the delta
// chain is checked against: one pair table of its own, one transfer call and
// one numbering lookup per out-edge. It runs under a cooperative budget: the
// worklist polls b once per dequeued item and stops early when the budget
// trips, returning the partial fixpoint computed so far. A partial result
// under-approximates the reachable states, so callers must check
// b.Tripped() before trusting a "no failing state found" scan of it. A nil
// budget never trips.
func SolveBudget[D comparable](g *lang.CFG, init D, tr Transfer[D], b *budget.Budget) *Result[D] {
	r := newResult[D](g)
	work := []int32{r.start(init)}
	for len(work) > 0 {
		if !b.Poll() {
			break
		}
		i := work[len(work)-1]
		work = work[:len(work)-1]
		it := r.pairs[i]
		for _, ei := range g.Out[it.node] {
			e := g.Edges[ei]
			next := it.state
			if e.A != nil {
				next = tr(e.A, it.state)
			}
			// The table is this run's own, so a pair is new to the run iff
			// it is new to the table.
			if j, fresh := r.number(e.To, next); fresh {
				r.discover(j, i, int32(ei))
				work = append(work, j)
			}
		}
	}
	return r
}
