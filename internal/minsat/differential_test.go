package minsat

// Differential tests of minsat's engines. TestEngineMatchesReference checks
// the clause-mask search against the occurrence-list engine it replaced,
// and TestDiagramMatchesSearch (at the end) checks the diagram against the
// search. The reference below transcribes the occurrence-list engine literally
// — clauses as packed literal lists, one occurrence list per variable, a
// three-valued assignment array, scanClause, and the epoch-stamped lower
// bound — answering each call cold, as the search does. Every call must
// agree with it on the model or UNSAT verdict, on whether and at which
// budget step the call trips, and on the number of search nodes: the two
// engines must walk the same search tree node for node.

import (
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// ---------------------------------------------------------------------------
// Reference engine: the occurrence-list engine, transcribed.

// Three-valued assignment cells of the reference engine.
const (
	refUnassigned int8 = iota
	refFalse
	refTrue
)

type refEngine struct {
	vmap   map[int]int32 // external variable -> dense index
	dvar   []int         // dense index -> external variable
	cls    [][]int32     // dense clauses; literal = dense<<1 | neg
	occ    [][]int32     // dense variable -> indices of clauses mentioning it
	synced int

	hasEmpty bool

	order   []int32
	orderOK bool

	assign  []int8
	trail   []int32
	posBuf  []int32
	lbUsed  []uint64
	lbEpoch uint64
}

// refSolver pairs a clause store with the reference engine. Clauses go
// through the store's own Add, so the reference sees the same canonical,
// deduplicated clause list as the engine under test; the store's own engine
// is never built.
type refSolver struct {
	s   *Solver
	eng *refEngine
}

func newRefSolver(n int) *refSolver {
	return &refSolver{s: New(n), eng: &refEngine{vmap: make(map[int]int32)}}
}

func (r *refSolver) clone() *refSolver {
	return &refSolver{s: r.s.Clone(), eng: r.eng.clone()}
}

// minimum transcribes the search's MinimumBudget over the reference engine
// and returns the number of search nodes it visited.
func (r *refSolver) minimum(b *budget.Budget) (model uset.Set, ok bool, nodes int) {
	e := r.eng
	for _, c := range r.s.clauses[e.synced:] {
		e.addClause(c)
	}
	e.synced = len(r.s.clauses)
	if !b.Poll() || e.hasEmpty {
		return nil, false, 0
	}
	m, found, aborted := e.run(b, &nodes)
	if aborted || !found {
		return nil, false, nodes
	}
	return m, true, nodes
}

func (e *refEngine) addClause(c Clause) {
	ci := int32(len(e.cls))
	if len(c) == 0 {
		e.hasEmpty = true
		e.cls = append(e.cls, nil)
		return
	}
	row := make([]int32, len(c))
	for i, l := range c {
		dv, ok := e.vmap[l.Var]
		if !ok {
			dv = int32(len(e.dvar))
			e.vmap[l.Var] = dv
			e.dvar = append(e.dvar, l.Var)
			e.occ = append(e.occ, nil)
			e.orderOK = false
		}
		lit := dv << 1
		if l.Neg {
			lit |= 1
		}
		row[i] = lit
		e.occ[dv] = append(e.occ[dv], ci)
	}
	e.cls = append(e.cls, row)
}

func (e *refEngine) clone() *refEngine {
	ne := &refEngine{
		vmap:     make(map[int]int32, len(e.vmap)),
		dvar:     e.dvar[:len(e.dvar):len(e.dvar)],
		cls:      e.cls[:len(e.cls):len(e.cls)],
		occ:      make([][]int32, len(e.occ)),
		synced:   e.synced,
		hasEmpty: e.hasEmpty,
		order:    e.order,
		orderOK:  e.orderOK,
	}
	for v, dv := range e.vmap {
		ne.vmap[v] = dv
	}
	for i, o := range e.occ {
		ne.occ[i] = o[:len(o):len(o)]
	}
	return ne
}

func (e *refEngine) ensureOrder() {
	if e.orderOK {
		return
	}
	order := make([]int32, len(e.dvar))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return e.dvar[order[i]] < e.dvar[order[j]] })
	e.order = order
	e.orderOK = true
}

func (e *refEngine) scanClause(c []int32) (sat bool, unCount int, unit int32) {
	for _, lit := range c {
		switch e.assign[lit>>1] {
		case refUnassigned:
			unCount++
			unit = lit
		case refTrue:
			if lit&1 == 0 {
				return true, 0, 0
			}
		case refFalse:
			if lit&1 == 1 {
				return true, 0, 0
			}
		}
	}
	return false, unCount, unit
}

func (e *refEngine) run(b *budget.Budget, nodes *int) (model uset.Set, found, aborted bool) {
	e.ensureOrder()
	nv := len(e.dvar)
	if len(e.assign) < nv {
		e.assign = make([]int8, nv)
		e.lbUsed = make([]uint64, nv)
		e.lbEpoch = 0
	} else {
		for i := range e.assign {
			e.assign[i] = refUnassigned
		}
	}
	e.trail = e.trail[:0]

	best := -1
	var bestModel []int
	abort := false

	propagate := func(start int) (setTrue int, conflict bool) {
		for qi := start; qi < len(e.trail); qi++ {
			for _, ci := range e.occ[e.trail[qi]] {
				sat, unCount, unit := e.scanClause(e.cls[ci])
				if sat {
					continue
				}
				switch unCount {
				case 0:
					return setTrue, true
				case 1:
					uv := unit >> 1
					if unit&1 == 1 {
						e.assign[uv] = refFalse
					} else {
						e.assign[uv] = refTrue
						setTrue++
					}
					e.trail = append(e.trail, uv)
				}
			}
		}
		return setTrue, false
	}

	rootPropagate := func() (setTrue int, conflict bool) {
		for _, c := range e.cls {
			sat, unCount, unit := e.scanClause(c)
			if sat {
				continue
			}
			switch unCount {
			case 0:
				return setTrue, true
			case 1:
				uv := unit >> 1
				if unit&1 == 1 {
					e.assign[uv] = refFalse
				} else {
					e.assign[uv] = refTrue
					setTrue++
				}
				e.trail = append(e.trail, uv)
			}
		}
		st, conf := propagate(0)
		return setTrue + st, conf
	}

	pos := e.posBuf
	lowerBound := func() int {
		e.lbEpoch++
		epoch := e.lbEpoch
		lb := 0
	clauseLoop:
		for _, c := range e.cls {
			pos = pos[:0]
			for _, lit := range c {
				v := lit >> 1
				switch e.assign[v] {
				case refTrue:
					if lit&1 == 0 {
						continue clauseLoop
					}
				case refFalse:
					if lit&1 == 1 {
						continue clauseLoop
					}
				case refUnassigned:
					if lit&1 == 1 {
						continue clauseLoop
					}
					pos = append(pos, v)
				}
			}
			for _, v := range pos {
				if e.lbUsed[v] == epoch {
					continue clauseLoop
				}
			}
			for _, v := range pos {
				e.lbUsed[v] = epoch
			}
			lb++
		}
		return lb
	}

	var search func(idx int32, cost int, branched int32)
	search = func(idx int32, cost int, branched int32) {
		if abort {
			return
		}
		if !b.Poll() {
			abort = true
			return
		}
		*nodes++
		if best >= 0 && cost >= best {
			return
		}
		mark := len(e.trail)
		var extraTrue int
		var conflict bool
		if branched < 0 {
			extraTrue, conflict = rootPropagate()
		} else {
			e.trail = append(e.trail, branched)
			extraTrue, conflict = propagate(mark)
		}
		undo := func() {
			for _, v := range e.trail[mark:] {
				e.assign[v] = refUnassigned
			}
			e.trail = e.trail[:mark]
		}
		cost += extraTrue
		if conflict || (best >= 0 && cost >= best) {
			undo()
			return
		}
		if best >= 0 && cost+lowerBound() >= best {
			undo()
			return
		}
		i := idx
		for int(i) < len(e.order) && e.assign[e.order[i]] != refUnassigned {
			i++
		}
		if int(i) == len(e.order) {
			if best < 0 || cost < best {
				best = cost
				bestModel = bestModel[:0]
				for _, dv := range e.order {
					if e.assign[dv] == refTrue {
						bestModel = append(bestModel, e.dvar[dv])
					}
				}
			}
			undo()
			return
		}
		v := e.order[i]
		e.assign[v] = refFalse
		search(i+1, cost, v)
		if abort {
			return
		}
		e.assign[v] = refTrue
		search(i+1, cost+1, v)
		e.assign[v] = refUnassigned
		undo()
	}
	search(0, 0, -1)
	e.posBuf = pos[:0]
	if abort {
		return nil, false, true
	}
	if best < 0 {
		return nil, false, false
	}
	return uset.New(bestModel...), true, false
}

// ---------------------------------------------------------------------------
// The differential test.

// fuzzTrials reads the trial count from MINSAT_FUZZ_N (make fuzz runs a
// longer hunt) and defaults to n.
func fuzzTrials(n int) int {
	if v := os.Getenv("MINSAT_FUZZ_N"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			return parsed
		}
	}
	return n
}

// lineage is one solver under test, its reference twin, and the model
// their last call returned.
type lineage struct {
	s     *Solver
	ref   *refSolver
	model uset.Set
}

// cegarCube draws a cube the way an exhausted query's backward pass does:
// it contains the last model (a subset of it on, variables outside it off),
// so blocking it forces a re-search. With no model it is an all-off cube,
// which CEGAR learns from the empty first abstraction.
func cegarCube(rng *rand.Rand, n int, model uset.Set) (pos, neg uset.Set) {
	for _, v := range model.Elems() {
		if rng.Intn(3) == 0 {
			pos = pos.Add(v)
		}
	}
	off := 1 + rng.Intn(5)
	if rng.Intn(6) == 0 {
		off = 1 + rng.Intn(24) // a wide cube: the first abstractions fail broadly
	}
	for i := off; i > 0; i-- {
		if v := rng.Intn(n); !model.Has(v) {
			neg = neg.Add(v)
		}
	}
	return pos, neg
}

// randCube draws a mixed-sign cube over n variables that need not contain
// the last model, so some rounds leave it satisfied.
func randCube(rng *rand.Rand, n int) (pos, neg uset.Set) {
	for i := rng.Intn(4); i > 0; i-- {
		if v := rng.Intn(n); !neg.Has(v) {
			pos = pos.Add(v)
		}
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		if v := rng.Intn(n); !pos.Has(v) {
			neg = neg.Add(v)
		}
	}
	return pos, neg
}

// TestEngineMatchesReference drives random CEGAR-shaped sequences through
// the engine and the reference side by side: universes of 8–300 variables
// (so dense counts pass one and two mask words), rounds of mixed-sign
// blocking cubes, some rounds that block exactly the returned model,
// lineages forked by Clone and advanced in interleaved order, and a step
// quota per call — usually 20,000, sometimes 1–50, so some calls abort
// mid-search. Scale with MINSAT_FUZZ_N.
func TestEngineMatchesReference(t *testing.T) {
	trials := fuzzTrials(6)
	rng := rand.New(rand.NewSource(20))
	var nodes int64
	var maxDense, past64, past128 int
	for trial := 0; trial < trials; trial++ {
		n := 8 + rng.Intn(293)
		agg := obs.NewAgg() // clones inherit it; calls run one at a time
		root := &lineage{s: NewSearch(n), ref: newRefSolver(n)}
		root.s.Instrument(agg)
		lines := []*lineage{root}
		dense := 0
		for round := 0; round < 40; round++ {
			l := lines[rng.Intn(len(lines))]
			if len(lines) < 4 && rng.Intn(6) == 0 {
				// Fork: the clone shares the parent's masks.
				l = &lineage{s: l.s.Clone(), ref: l.ref.clone(), model: l.model}
				lines = append(lines, l)
			}
			if l.model != nil && rng.Intn(4) == 0 {
				l.s.Block(l.model, nil)
				l.ref.s.Block(l.model, nil)
			} else {
				for i := rng.Intn(3); i >= 0; i-- {
					var pos, neg uset.Set
					if rng.Intn(4) == 0 {
						pos, neg = randCube(rng, n)
					} else {
						pos, neg = cegarCube(rng, n, l.model)
					}
					l.s.Block(pos, neg)
					l.ref.s.Block(pos, neg)
				}
			}
			quota := int64(20000)
			if rng.Intn(8) == 0 {
				quota = 1 + rng.Int63n(50)
			}
			b, rb := budget.New(nil, time.Time{}, quota), budget.New(nil, time.Time{}, quota)
			before := agg.Counter(obs.MinsatSearchNodes)
			got, ok := l.s.MinimumBudget(b)
			gotNodes := agg.Counter(obs.MinsatSearchNodes) - before
			want, wantOK, wantNodes := l.ref.minimum(rb)
			nodes += gotNodes
			dense = max(dense, len(l.s.eng.dvar))
			if ok != wantOK || !got.Equal(want) || b.Tripped() != rb.Tripped() ||
				b.Steps() != rb.Steps() || gotNodes != int64(wantNodes) {
				t.Fatalf("trial %d round %d (%d vars, %d dense, %d clauses, quota %d): "+
					"engine %v,%v tripped=%v steps=%d nodes=%d; reference %v,%v tripped=%v steps=%d nodes=%d",
					trial, round, n, len(l.s.eng.dvar), l.s.NumClauses(), quota,
					got, ok, b.Tripped(), b.Steps(), gotNodes,
					want, wantOK, rb.Tripped(), rb.Steps(), wantNodes)
			}
			if ok {
				l.model = got
			} else if !b.Tripped() {
				// UNSAT is sticky: retire the lineage unless it is the last.
				if len(lines) == 1 {
					break
				}
				lines = slices.DeleteFunc(lines, func(x *lineage) bool { return x == l })
			}
		}
		if dense > 64 {
			past64++
		}
		if dense > 128 {
			past128++
		}
		maxDense = max(maxDense, dense)
	}
	t.Logf("%d trials (%d past 64 dense variables, %d past 128), %d search nodes, largest dense universe %d",
		trials, past64, past128, nodes, maxDense)
}

// ---------------------------------------------------------------------------
// The diagram against the clause-mask search.

// guardSteps bounds every call TestDiagramMatchesSearch compares. The search
// is exponential on a few of the generator's instances (one trial in a
// dozen can take over a minute unguarded); a guard trip ends the trial
// rather than the test, and is counted.
const guardSteps = 200000

// twin is a diagram solver, its search-only twin fed the same clauses, and
// the model their last call returned.
type twin struct {
	d, s  *Solver
	model uset.Set
}

// TestDiagramMatchesSearch drives TestEngineMatchesReference's CEGAR-shaped
// sequences through a diagram solver and a search-only twin: mixed-sign
// cubes, rounds that block the returned model, Clone lineages advanced in
// interleaved order, universes of 8–300 variables. Every call outside the
// small quotas must return the search's model or agree on UNSAT. A call
// under a step quota of 1–50 that trips must report ok=false with its
// budget tripped, and the call after it must again agree. The test requires
// that some calls were answered on a diagram, that some trials fell back,
// and that some clones were taken of fallen-back solvers. Scale with
// MINSAT_FUZZ_N.
func TestDiagramMatchesSearch(t *testing.T) {
	trials := fuzzTrials(6)
	rng := rand.New(rand.NewSource(23))
	var calls, onDiagram, trips, guarded, fellBack, fallenClones, maxNodes int
	for trial := 0; trial < trials; trial++ {
		n := 8 + rng.Intn(293)
		// A cap of 2^8 to 2^15 nodes: low enough that most trials cross it
		// quickly, so the fallback and clones of fallen-back solvers run in
		// every batch of trials, and high enough that many calls are
		// answered on the diagram first. TestMinimumBudgetAbort's control
		// solve crosses the real cap.
		limit := 1 << (8 + rng.Intn(8))
		root := &twin{d: New(n), s: NewSearch(n)}
		root.d.bdd = newDiagram(limit)
		lines := []*twin{root}
	rounds:
		for round := 0; round < 40; round++ {
			l := lines[rng.Intn(len(lines))]
			if len(lines) < 4 && rng.Intn(6) == 0 {
				if l.d.dropped {
					fallenClones++
				}
				l = &twin{d: l.d.Clone(), s: l.s.Clone(), model: l.model}
				lines = append(lines, l)
			}
			if l.model != nil && rng.Intn(4) == 0 {
				l.d.Block(l.model, nil)
				l.s.Block(l.model, nil)
			} else {
				for i := rng.Intn(3); i >= 0; i-- {
					var pos, neg uset.Set
					if rng.Intn(4) == 0 {
						pos, neg = randCube(rng, n)
					} else {
						pos, neg = cegarCube(rng, n, l.model)
					}
					l.d.Block(pos, neg)
					l.s.Block(pos, neg)
				}
			}
			if rng.Intn(8) == 0 {
				quota := 1 + rng.Int63n(50)
				b := budget.New(nil, time.Time{}, quota)
				if got, ok := l.d.MinimumBudget(b); b.Tripped() {
					trips++
					if ok || got != nil {
						t.Fatalf("trial %d round %d: quota %d tripped, yet the call returned %v,%v",
							trial, round, quota, got, ok)
					}
				} else if b.Steps() > quota {
					t.Fatalf("trial %d round %d: %d steps past quota %d without a trip",
						trial, round, b.Steps(), quota)
				}
			}
			calls++
			rb := budget.New(nil, time.Time{}, guardSteps)
			want, wantOK := l.s.MinimumBudget(rb)
			b := budget.New(nil, time.Time{}, guardSteps)
			got, ok := l.d.MinimumBudget(b)
			switch {
			case b.Tripped() && !l.d.dropped:
				t.Fatalf("trial %d round %d: a diagram of at most %d nodes tripped %d steps",
					trial, round, limit, guardSteps)
			case rb.Tripped() || b.Tripped():
				guarded++
				break rounds
			case ok != wantOK || !got.Equal(want):
				t.Fatalf("trial %d round %d (%d vars, %d clauses, fell back %v): diagram %v,%v; search %v,%v",
					trial, round, n, l.d.NumClauses(), l.d.dropped, got, ok, want, wantOK)
			}
			if l.d.bdd != nil {
				onDiagram++
				maxNodes = max(maxNodes, len(l.d.bdd.nodes))
			}
			if ok {
				l.model = got
			} else {
				if len(lines) == 1 {
					break
				}
				lines = slices.DeleteFunc(lines, func(x *twin) bool { return x == l })
			}
		}
		if root.d.dropped {
			fellBack++
		}
	}
	t.Logf("%d trials (%d roots fell back, %d clones of fallen-back solvers, %d ended by the guard), "+
		"%d calls (%d on a diagram), %d quota trips, largest diagram %d nodes",
		trials, fellBack, fallenClones, guarded, calls, onDiagram, trips, maxNodes)
	if trials >= 6 && (onDiagram == 0 || fellBack == 0 || fallenClones == 0 || trips == 0) {
		t.Fatalf("coverage: %d calls on a diagram, %d fallbacks, %d clones of fallen-back solvers, "+
			"%d quota trips; want each > 0", onDiagram, fellBack, fallenClones, trips)
	}
}
