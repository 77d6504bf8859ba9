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
)

// Transfer is an instantiated transfer function λa,d. [a]p(d): the
// abstraction p has already been supplied by the analysis instance.
type Transfer[D comparable] func(a lang.Atom, d D) D

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

// origin records how a (node, state) pair was first discovered.
type origin[D comparable] struct {
	root      bool // true for the initial state at the entry node
	pred      int  // predecessor node
	predState D    // state at the predecessor
	atom      lang.Atom
}

// nodeState is a discovered (node, state) pair, the key of the flat
// provenance map.
type nodeState[D comparable] struct {
	node  int
	state D
}

// Result holds the states computed at every CFG node along with provenance.
// Discoveries live in one flat map keyed by (node, state) — a solve touches
// far fewer pairs than the CFG has nodes, so per-node maps would spend most
// of their allocation on empty buckets — plus a per-node slice for O(states
// at n) enumeration.
type Result[D comparable] struct {
	seen   map[nodeState[D]]origin[D]
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

// newResult returns an empty result over g. The discovery map's capacity is
// a bounded guess from the CFG size.
func newResult[D comparable](g *lang.CFG) *Result[D] {
	hint := max(min(g.Nodes, 1024), 64)
	return &Result[D]{seen: make(map[nodeState[D]]origin[D], hint), byNode: make([][]D, g.Nodes)}
}

// Has reports whether state d reaches node n.
func (r *Result[D]) Has(n int, d D) bool {
	_, ok := r.seen[nodeState[D]{n, d}]
	return ok
}

// Witness reconstructs an abstract counterexample trace ending at node n in
// state d: a loop-free walk through the (node, state) discovery graph, as
// guaranteed by Lemma 1. It panics if (n, d) was not reached.
func (r *Result[D]) Witness(n int, d D) lang.Trace {
	var rev []lang.Atom
	for {
		o, ok := r.seen[nodeState[D]{n, d}]
		if !ok {
			panic(fmt.Sprintf("dataflow: no witness for state %v at node %d", d, n))
		}
		if o.root {
			break
		}
		if o.atom != nil {
			rev = append(rev, o.atom)
		}
		n, d = o.pred, o.predState
	}
	out := make(lang.Trace, len(rev))
	for i, a := range rev {
		out[len(rev)-1-i] = a
	}
	return out
}

// Solve runs the disjunctive forward analysis over the CFG from the initial
// state at the entry node. ε edges propagate states unchanged. The solver
// is a chaotic worklist iteration; since D is finite for the analyses in
// this repository, it terminates.
func Solve[D comparable](g *lang.CFG, init D, tr Transfer[D]) *Result[D] {
	return SolveBudget(g, init, tr, nil)
}

// SolveBudget is Solve under a cooperative budget: the worklist polls b once
// per dequeued item and stops early when the budget trips, returning the
// partial fixpoint computed so far. A partial result under-approximates the
// reachable states, so callers must check b.Tripped() before trusting a
// "no failing state found" scan of it. A nil budget never trips.
func SolveBudget[D comparable](g *lang.CFG, init D, tr Transfer[D], b *budget.Budget) *Result[D] {
	r := newResult[D](g)
	r.seen[nodeState[D]{g.Entry, init}] = origin[D]{root: true}
	r.byNode[g.Entry] = append(r.byNode[g.Entry], init)
	r.Steps++
	work := []nodeState[D]{{g.Entry, init}}
	for len(work) > 0 {
		if !b.Poll() {
			break
		}
		it := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range g.Out[it.node] {
			e := g.Edges[ei]
			next := it.state
			if e.A != nil {
				next = tr(e.A, it.state)
			}
			key := nodeState[D]{e.To, next}
			if _, seen := r.seen[key]; seen {
				continue
			}
			r.seen[key] = origin[D]{pred: it.node, predState: it.state, atom: e.A}
			r.byNode[e.To] = append(r.byNode[e.To], next)
			r.Steps++
			work = append(work, key)
		}
	}
	return r
}
