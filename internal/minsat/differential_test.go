package minsat

// Differential tests of the diagram against the reference engine below, the
// occurrence-list branch-and-bound search that answered line 8 before the
// diagram did, transcribed literally — clauses as packed literal lists, one
// occurrence list per variable, a three-valued assignment array, scanClause,
// and the epoch-stamped lower bound — answering each call cold. It shares
// no code with the diagram beyond the clause store's Add, so the two agree
// only if both find the lex-least minimum model. TestDiagramMatchesSearch
// and TestEngineMatchesReference (at the end) drive both through one
// generator; the second puts every compared call under a step quota.

import (
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"tracer/internal/budget"
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
// deduplicated clause list as the diagram under test; the store's own
// diagram is never built.
type refSolver struct {
	s   *Solver
	eng *refEngine
}

func newRefSolver(n int) *refSolver { return refOver(New(n)) }

// refOver returns the reference engine over s's clauses.
func refOver(s *Solver) *refSolver {
	return &refSolver{s: s, eng: &refEngine{vmap: make(map[int]int32)}}
}

func (r *refSolver) clone() *refSolver {
	return &refSolver{s: r.s.Clone(), eng: r.eng.clone()}
}

// minimum answers from the reference engine, synced with every clause added
// to the store since its previous call, under b: the lex-least minimum
// model, or ok=false when the clauses are unsatisfiable or b tripped.
func (r *refSolver) minimum(b *budget.Budget) (model uset.Set, ok bool) {
	e := r.eng
	for _, c := range r.s.clauses[e.synced:] {
		e.addClause(c)
	}
	e.synced = len(r.s.clauses)
	if !b.Poll() || e.hasEmpty {
		return nil, false
	}
	var nodes int
	m, found, aborted := e.run(b, &nodes)
	if aborted || !found {
		return nil, false
	}
	return m, true
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

// guardSteps bounds every call diagramVsReference compares. The reference
// is exponential on a few of the generator's instances (one trial in a
// dozen can take over a minute unguarded); a guard trip ends the trial
// rather than the test, and is counted.
const guardSteps = 200000

// lineage is one diagram solver, its reference twin fed the same clauses,
// and the model their last call returned.
type lineage struct {
	s     *Solver
	ref   *refSolver
	model uset.Set
}

// diffCounts tallies what one run of diagramVsReference exercised:
// quotaTrips counts the trips of the 1–50-step calls, callTrips those of
// compared calls under a quota below the guard.
type diffCounts struct {
	trials, guarded, calls, answered, capTrips, quotaTrips, callTrips, maxNodes int
}

// diagramVsReference drives random CEGAR-shaped sequences through a diagram
// solver and the reference side by side: universes of 8–300 variables,
// rounds of mixed-sign blocking cubes, some rounds that block exactly the
// returned model, and lineages forked by Clone and advanced in interleaved
// order. capOf draws each trial's node cap and quotaOf each compared call's
// step quota. Every compared call that fits and finishes must return the
// reference's model or agree on UNSAT. A call past the cap must return
// ok=false with its budget tripped on cause Space, and its lineage retires.
// A call that trips a quota below guardSteps must report ok=false and is not
// compared; one that trips the guard fails the test. One round in eight
// first makes an extra call under a step quota of 1–50, which must report
// ok=false if it trips, and the compared call after it must again agree.
// Scale with MINSAT_FUZZ_N.
func diagramVsReference(t *testing.T, seed int64, capOf func(*rand.Rand) int,
	quotaOf func(*rand.Rand) int64) diffCounts {
	t.Helper()
	c := diffCounts{trials: fuzzTrials(6)}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < c.trials; trial++ {
		n := 8 + rng.Intn(293)
		limit := capOf(rng)
		root := &lineage{s: New(n), ref: newRefSolver(n)}
		root.s.bdd = newDiagram(limit)
		lines := []*lineage{root}
	rounds:
		for round := 0; round < 40; round++ {
			l := lines[rng.Intn(len(lines))]
			if len(lines) < 4 && rng.Intn(6) == 0 {
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
			if rng.Intn(8) == 0 {
				quota := 1 + rng.Int63n(50)
				b := budget.New(nil, time.Time{}, quota)
				if got, ok := l.s.MinimumBudget(b); b.Tripped() {
					if b.Cause() == budget.Steps {
						c.quotaTrips++
					}
					if ok || got != nil {
						t.Fatalf("trial %d round %d: quota %d tripped (%v), yet the call returned %v,%v",
							trial, round, quota, b.Cause(), got, ok)
					}
				} else if b.Steps() > quota {
					t.Fatalf("trial %d round %d: %d steps past quota %d without a trip",
						trial, round, b.Steps(), quota)
				}
			}
			c.calls++
			quota := quotaOf(rng)
			b := budget.New(nil, time.Time{}, quota)
			got, ok := l.s.MinimumBudget(b)
			if b.Cause() == budget.Space {
				c.capTrips++
				if ok || got != nil {
					t.Fatalf("trial %d round %d: past the cap of %d nodes, yet the call returned %v,%v",
						trial, round, limit, got, ok)
				}
				if len(lines) == 1 {
					break
				}
				lines = slices.DeleteFunc(lines, func(x *lineage) bool { return x == l })
				continue
			}
			if b.Tripped() {
				if quota >= guardSteps {
					t.Fatalf("trial %d round %d: a diagram of at most %d nodes tripped %d steps (%v)",
						trial, round, limit, quota, b.Cause())
				}
				c.callTrips++
				if ok || got != nil {
					t.Fatalf("trial %d round %d: quota %d tripped (%v), yet the call returned %v,%v",
						trial, round, quota, b.Cause(), got, ok)
				}
				continue
			}
			rb := budget.New(nil, time.Time{}, guardSteps)
			want, wantOK := l.ref.minimum(rb)
			switch {
			case rb.Tripped():
				c.guarded++
				break rounds
			case ok != wantOK || !got.Equal(want):
				t.Fatalf("trial %d round %d (%d vars, %d clauses): diagram %v,%v; reference %v,%v",
					trial, round, n, l.s.NumClauses(), got, ok, want, wantOK)
			}
			c.answered++
			c.maxNodes = max(c.maxNodes, len(l.s.bdd.nodes))
			if ok {
				l.model = got
			} else {
				// UNSAT is sticky: retire the lineage unless it is the last.
				if len(lines) == 1 {
					break
				}
				lines = slices.DeleteFunc(lines, func(x *lineage) bool { return x == l })
			}
		}
	}
	t.Logf("%d trials (%d ended by the guard), %d calls (%d answered, %d past the cap, %d tripped), "+
		"%d quota trips, largest diagram %d nodes", c.trials, c.guarded, c.calls, c.answered,
		c.capTrips, c.callTrips, c.quotaTrips, c.maxNodes)
	return c
}

// smallCap draws a trial's node cap from 2^8 to 2^15: low enough that most
// trials cross it quickly, and high enough that many calls are answered
// first (TestMinimumBudgetAbort crosses the real cap).
func smallCap(rng *rand.Rand) int { return 1 << (8 + rng.Intn(8)) }

// TestEngineMatchesReference runs diagramVsReference with every compared
// call under a step quota, usually 20,000 and sometimes 1–50, so calls abort
// at every depth of an apply, the retry after a compaction included, and a
// lineage goes on from each abort. The test requires some answered calls
// and some tripped compared calls.
func TestEngineMatchesReference(t *testing.T) {
	c := diagramVsReference(t, 20, smallCap, func(rng *rand.Rand) int64 {
		if rng.Intn(8) == 0 {
			return 1 + rng.Int63n(50)
		}
		return 20000
	})
	if c.trials >= 6 && (c.answered == 0 || c.callTrips == 0) {
		t.Fatalf("coverage: %d answered calls, %d tripped compared calls; want each > 0",
			c.answered, c.callTrips)
	}
}

// TestDiagramMatchesSearch runs diagramVsReference against the reference's
// branch-and-bound search, each compared call under the guard alone. The
// test requires some answered calls, some cap trips and some quota trips.
func TestDiagramMatchesSearch(t *testing.T) {
	c := diagramVsReference(t, 23, smallCap, func(*rand.Rand) int64 { return guardSteps })
	if c.trials >= 6 && (c.answered == 0 || c.capTrips == 0 || c.quotaTrips == 0) {
		t.Fatalf("coverage: %d answered calls, %d cap trips, %d quota trips; want each > 0",
			c.answered, c.capTrips, c.quotaTrips)
	}
}
