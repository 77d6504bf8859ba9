package rhs

import (
	"fmt"
	"time"

	"tracer/internal/budget"
	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/obs"
)

// peKey identifies a path edge ⟨dIn, n, d⟩ within method m: running the
// method body from its entry with fact dIn reaches node n with fact d.
type peKey[D comparable] struct {
	m   int
	dIn D
	n   int
	d   D
}

// originKind distinguishes how a path edge was first derived.
type originKind uint8

const (
	oRoot originKind = iota // entry path edge ⟨dIn, entry, dIn⟩
	oIntra
	oRet // return-site edge derived from a caller edge + callee summary
)

// origin records the first derivation of a path edge, for witnesses. The
// discovery order makes the provenance graph well-founded.
type origin[D comparable] struct {
	kind  originKind
	order int
	// oIntra, oRet: the predecessor path edge in the same method.
	prev peKey[D]
	// oIntra: the atom (nil for ε). oRet: unused.
	atom lang.Atom
	// oRet: the call edge taken and the callee-side summary instance.
	call      *CallEdge
	calleeDIn D
	calleeOut D
}

// ctxKey identifies a procedure-summary context (method, entry fact).
type ctxKey[D comparable] struct {
	m   int
	dIn D
}

// caller records a call awaiting (or consuming) a context's summaries.
type caller[D comparable] struct {
	pe   peKey[D] // caller path edge at the call node
	edge *Edge    // the call edge taken (From = pe.n)
}

// nodeKey addresses one node of one method in the node index.
type nodeKey struct {
	m, n int
}

// nodeFacts indexes the facts reaching one (method, node) pair. It is built
// incrementally during tabulation so that States/Has/Witness answer in time
// proportional to the answer instead of scanning the full path-edge map —
// the batch driver calls them once per query per CEGAR iteration.
type nodeFacts[D comparable] struct {
	// facts lists the distinct facts in discovery order.
	facts []D
	// first maps each fact to the earliest-discovered path edge carrying it;
	// discovery order is monotone in origin.order, so the first edge seen is
	// the minimum-order one, which Witness must pick.
	first map[D]peKey[D]
}

// summarySet holds one context's summary exit facts in discovery order: the
// tabulation iterates recorded summaries when a new call into the context
// arrives, and map-order iteration there would leak into discovery order —
// and through it into witness choice — making runs nondeterministic.
type summarySet[D comparable] struct {
	list []D
	has  map[D]bool
}

// Result is the tabulation fixpoint with provenance.
type Result[D comparable] struct {
	g  *Graph
	tr dataflow.Transfer[D]

	pe        map[peKey[D]]origin[D]
	index     map[nodeKey]*nodeFacts[D]
	summaries map[ctxKey[D]]*summarySet[D]
	incoming  map[ctxKey[D]][]caller[D]
	// firstIn is the first caller recorded for a context: the canonical,
	// well-founded witness parent.
	firstIn map[ctxKey[D]]caller[D]
	// Steps counts path-edge discoveries (the solver's cost measure).
	Steps int
	// MaxWorklist is the worklist's high-water mark over the run.
	MaxWorklist int
	order       int
	rootDIn     D
}

// SolveBudget runs the tabulation from the main method's entry with fact
// dI under a cooperative budget: the tabulation worklist polls b once per
// dequeued path edge and stops early when the budget trips, returning the
// partial tabulation computed so far. Partial results under-approximate the
// reachable facts, so callers must check b.Tripped() before trusting a "no
// failing state found" scan. A nil budget never trips. A non-nil recorder
// receives the run's wall time (timer "rhs.solve"), path-edge discoveries
// (counter "rhs.path_edges" — equal to Result.Steps), discovered
// procedure-summary contexts (counter "rhs.contexts"), and the worklist
// high-water mark (gauge "rhs.worklist_peak").
func SolveBudget[D comparable](g *Graph, dI D, tr dataflow.Transfer[D], rec obs.Recorder, b *budget.Budget) *Result[D] {
	r := &Result[D]{
		g:         g,
		tr:        tr,
		pe:        map[peKey[D]]origin[D]{},
		index:     map[nodeKey]*nodeFacts[D]{},
		summaries: map[ctxKey[D]]*summarySet[D]{},
		incoming:  map[ctxKey[D]][]caller[D]{},
		firstIn:   map[ctxKey[D]]caller[D]{},
		rootDIn:   dI,
	}
	recording := rec != nil && rec.Enabled()
	var start time.Time
	if recording {
		start = time.Now()
	}
	var work []peKey[D]
	propagate := func(k peKey[D], o origin[D]) {
		if _, seen := r.pe[k]; seen {
			return
		}
		o.order = r.order
		r.order++
		r.pe[k] = o
		nk := nodeKey{k.m, k.n}
		nf := r.index[nk]
		if nf == nil {
			nf = &nodeFacts[D]{first: map[D]peKey[D]{}}
			r.index[nk] = nf
		}
		if _, known := nf.first[k.d]; !known {
			nf.first[k.d] = k
			nf.facts = append(nf.facts, k.d)
		}
		r.Steps++
		work = append(work, k)
		if len(work) > r.MaxWorklist {
			r.MaxWorklist = len(work)
		}
	}
	main := g.Methods[g.Main]
	propagate(peKey[D]{g.Main, dI, main.Entry, dI}, origin[D]{kind: oRoot})

	apply := func(atoms []lang.Atom, d D) D {
		for _, a := range atoms {
			d = tr(a, d)
		}
		return d
	}

	for len(work) > 0 {
		if !b.Poll() {
			break
		}
		k := work[len(work)-1]
		work = work[:len(work)-1]
		m := g.Methods[k.m]
		for _, ei := range m.Out[k.n] {
			e := &m.Edges[ei]
			switch {
			case e.Call == nil:
				next := k.d
				if e.Atom != nil {
					next = tr(e.Atom, k.d)
				}
				propagate(peKey[D]{k.m, k.dIn, e.To, next},
					origin[D]{kind: oIntra, prev: k, atom: e.Atom})
			default:
				callee := e.Call.Callee
				dCall := apply(e.Call.Bind, k.d)
				ctx := ctxKey[D]{callee, dCall}
				c := caller[D]{pe: k, edge: e}
				if _, known := r.firstIn[ctx]; !known {
					r.firstIn[ctx] = c
				}
				r.incoming[ctx] = append(r.incoming[ctx], c)
				calleeEntry := g.Methods[callee].Entry
				propagate(peKey[D]{callee, dCall, calleeEntry, dCall}, origin[D]{kind: oRoot})
				if s := r.summaries[ctx]; s != nil {
					for _, dExit := range s.list {
						dRet := apply(e.Call.Ret, dExit)
						propagate(peKey[D]{k.m, k.dIn, e.To, dRet},
							origin[D]{kind: oRet, prev: k, call: e.Call, calleeDIn: dCall, calleeOut: dExit})
					}
				}
			}
		}
		if k.n == m.Exit {
			ctx := ctxKey[D]{k.m, k.dIn}
			s := r.summaries[ctx]
			if s == nil {
				s = &summarySet[D]{has: map[D]bool{}}
				r.summaries[ctx] = s
			}
			if !s.has[k.d] {
				s.has[k.d] = true
				s.list = append(s.list, k.d)
				for _, c := range r.incoming[ctx] {
					dRet := apply(c.edge.Call.Ret, k.d)
					propagate(peKey[D]{c.pe.m, c.pe.dIn, c.edge.To, dRet},
						origin[D]{kind: oRet, prev: c.pe, call: c.edge.Call, calleeDIn: k.dIn, calleeOut: k.d})
				}
			}
		}
	}
	if recording {
		rec.Timing("rhs.solve", time.Since(start))
		rec.Count("rhs.path_edges", int64(r.Steps))
		rec.Count("rhs.contexts", int64(len(r.summaries)))
		rec.Gauge("rhs.worklist_peak", int64(r.MaxWorklist))
	}
	return r
}

// States returns the facts reaching node n of method m, across all calling
// contexts, in discovery order.
func (r *Result[D]) States(m, n int) []D {
	nf := r.index[nodeKey{m, n}]
	if nf == nil {
		return nil
	}
	return append([]D(nil), nf.facts...)
}

// Has reports whether fact d reaches node n of method m in some context.
func (r *Result[D]) Has(m, n int, d D) bool {
	nf := r.index[nodeKey{m, n}]
	if nf == nil {
		return false
	}
	_, ok := nf.first[d]
	return ok
}

// Witness reconstructs a whole-program abstract counterexample trace from
// the main entry to node n of method m with fact d: the atoms of the
// caller chain with callee traces spliced at call sites — exactly the flat
// traces the backward meta-analysis consumes. The earliest-discovered path
// edge is chosen, making the result deterministic.
func (r *Result[D]) Witness(m, n int, d D) lang.Trace {
	nf := r.index[nodeKey{m, n}]
	if nf == nil {
		panic(fmt.Sprintf("rhs: no witness for fact %v at method %d node %d", d, m, n))
	}
	best, ok := nf.first[d]
	if !ok {
		panic(fmt.Sprintf("rhs: no witness for fact %v at method %d node %d", d, m, n))
	}
	return r.fullTrace(best)
}

// relTrace reconstructs the trace of a path edge relative to its method's
// entry.
func (r *Result[D]) relTrace(k peKey[D]) lang.Trace {
	var rev []lang.Atom // reversed segments appended atom by atom
	for {
		o, ok := r.pe[k]
		if !ok {
			panic("rhs: dangling path edge in provenance")
		}
		switch o.kind {
		case oRoot:
			reverse(rev)
			return rev
		case oIntra:
			if o.atom != nil {
				rev = append(rev, o.atom)
			}
			k = o.prev
		case oRet:
			// Splice: Bind ++ callee trace ++ Ret, reversed.
			for i := len(o.call.Ret) - 1; i >= 0; i-- {
				rev = append(rev, o.call.Ret[i])
			}
			calleeExit := r.g.Methods[o.call.Callee].Exit
			inner := r.relTrace(peKey[D]{o.call.Callee, o.calleeDIn, calleeExit, o.calleeOut})
			for i := len(inner) - 1; i >= 0; i-- {
				rev = append(rev, inner[i])
			}
			for i := len(o.call.Bind) - 1; i >= 0; i-- {
				rev = append(rev, o.call.Bind[i])
			}
			k = o.prev
		}
	}
}

// fullTrace extends a path edge's relative trace with the canonical caller
// chain back to the main entry.
func (r *Result[D]) fullTrace(k peKey[D]) lang.Trace {
	rel := r.relTrace(k)
	if k.m == r.g.Main && k.dIn == r.rootDIn {
		return rel // the root context needs no caller prefix
	}
	c, ok := r.firstIn[ctxKey[D]{k.m, k.dIn}]
	if !ok {
		panic("rhs: context without a caller")
	}
	prefix := r.fullTrace(c.pe)
	out := make(lang.Trace, 0, len(prefix)+len(c.edge.Call.Bind)+len(rel))
	out = append(out, prefix...)
	out = append(out, c.edge.Call.Bind...)
	out = append(out, rel...)
	return out
}

func reverse(a []lang.Atom) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}
