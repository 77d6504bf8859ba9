// Package minsat finds minimum-cost models of CNF formulas over boolean
// parameter variables. TRACER (§5) maintains the viable abstraction set as
// a conjunction of blocking clauses learned from the backward meta-analysis
// and repeatedly needs a *minimum* abstraction from it (line 8 of Alg 1):
// the model with the fewest true variables, which corresponds to the
// cheapest abstraction under both clients' cost orders (|p| for type-state,
// number of L-mapped sites for thread-escape). Ties are broken
// deterministically: among minimum-cost models the lexicographically
// smallest (false < true, by variable index) is returned. Every variable no
// clause constrains is false in the returned model.
//
// # The diagram
//
// A Solver answers from a reduced ordered BDD of the viable set (bdd.go).
// Variables are ordered by parameter index, smallest at the top, and nodes
// are hash-consed through a unique table, so each boolean function has one
// node. Each node stores the fewest true variables on any path from it to
// the true terminal, computed when the node is made. Minimum conjoins the
// clauses added since the last call, one apply (f ∧ clause) each, and walks
// from the root, taking the low edge (variable false) whenever that edge
// reaches the node's minimum and the high edge otherwise. The walk yields
// the lex-least minimum model in one pass over at most one node per
// variable; the false terminal at the root means UNSAT. A call whose
// diagram is the one the previous answer was read from (no clause added,
// every added clause already implied, or UNSAT) returns the cached answer
// and counts on "minsat.incremental_reuse".
//
// Every node made is charged one budget poll, as a search node is. A trip
// in the middle of an apply leaves the root and the count of conjoined
// clauses as they were, so the next call resumes from the last complete
// apply and still answers exactly.
//
// # The fallback
//
// A diagram may grow exponentially in the number of variables, although the
// benchmark suite's never passes tens of thousands of nodes. The node arena
// only grows: an apply leaves the nodes of the diagram it replaced behind.
// When an apply would pass a fixed node cap (nodeCap), the solver compacts
// the diagram to the nodes its root reaches and retries the clause once. It
// drops the diagram for good when the compacted arena still holds more than
// half the cap, or when the retry fills the arena again, and then answers
// every later call, starting with the one that hit the cap, from the
// clause-mask search below, built cold from the whole clause list. A fallback
// counts on "minsat.fallback".
//
// The search is an exact branch-and-bound DPLL with unit propagation. Only
// variables mentioned in clauses are branched on, so it scales with the
// number of learned clauses rather than with the (possibly huge) parameter
// space. It runs on bit masks. Mentioned variables are renamed to dense
// indices, each clause is a mask of its positive and a mask of its negative
// literals, and the assignment is a mask of true and a mask of false
// variables, so classifying a clause (satisfied, unit, empty) or testing it
// for the lower bound takes a few word operations per 64 variables. A
// variable's value falsifies one of its literals, and propagation visits
// only the clauses containing that literal.
//
// Between calls the search keeps only its dense clause index (variable
// mapping, clause masks, per-literal occurrence lists), synced with the
// clauses added since the previous call; it answers each call cold from it.
//
// # Clones
//
// Clone shares nothing mutable with its parent, since the batch scheduler
// clones solvers concurrently. A clone holds a compacted copy of its
// parent's diagram, the nodes its root reaches in a fresh arena and unique
// table, and keeps the cached answer. A clone of a solver that fell back
// stays on the search, with a copy of its parent's clause index.
package minsat

import (
	"math/bits"
	"sort"
	"time"

	"tracer/internal/budget"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// Lit is a literal: a variable index with a sign.
type Lit struct {
	Var int
	Neg bool
}

// Clause is a disjunction of literals.
type Clause []Lit

// Solver accumulates clauses and answers minimum-model queries. A Solver is
// not safe for concurrent use; concurrent callers (the parallel batch
// scheduler) must Clone one solver per goroutine.
type Solver struct {
	n       int
	clauses []Clause
	keys    map[string]bool
	rec     obs.Recorder // nil = no recording
	// sig caches Signature(); Add invalidates it. Signature is called once
	// per query per batch iteration, so recomputing the sorted join of every
	// clause key each time was a measurable cost on large clause sets.
	sig   string
	sigOK bool
	// bdd is the diagram of the viable set, built lazily on the first
	// Minimum and synced to the clause list on each call. dropped records
	// that it passed the node cap: from then on eng answers.
	bdd     *diagram
	dropped bool
	// eng is the search engine, a dense mirror of the clause set. It is
	// built lazily on the first Minimum after the diagram is dropped and
	// synced to the clause list on each call.
	eng *engine
}

// Instrument attaches an observability recorder: every Minimum call reports
// its wall time (timer "minsat.minimum") and the work it charged to the
// budget (counter "minsat.search_nodes": diagram nodes made, plus search
// nodes after a fallback); calls answered entirely from the previous answer
// increment "minsat.incremental_reuse", and a solver dropping its diagram
// increments "minsat.fallback". Clones inherit the recorder.
func (s *Solver) Instrument(rec obs.Recorder) { s.rec = rec }

// New returns a solver over variables 0..n-1.
func New(n int) *Solver {
	return &Solver{n: n, keys: make(map[string]bool)}
}

// NumVars reports the size of the variable universe.
func (s *Solver) NumVars() int { return s.n }

// Clone returns an independent copy of the solver's clause set and diagram
// (or, after a fallback, its search engine). TRACER's multi-query driver
// clones solvers when a query group splits (§6); the clone resumes with its
// parent's diagram, so a group's first Minimum after a split is incremental
// too.
func (s *Solver) Clone() *Solver {
	out := New(s.n)
	out.rec = s.rec
	out.clauses = append([]Clause(nil), s.clauses...)
	for k := range s.keys {
		out.keys[k] = true
	}
	out.sig, out.sigOK = s.sig, s.sigOK
	out.dropped = s.dropped
	if s.bdd != nil {
		out.bdd = s.bdd.compact()
	}
	if s.eng != nil {
		out.eng = s.eng.clone()
	}
	return out
}

// Signature is a canonical identity of the clause set; query groups are
// keyed by it (two queries share a group iff their unviable abstraction
// sets — hence their clauses — coincide). The result is cached until the
// next clause insertion.
func (s *Solver) Signature() string {
	if s.sigOK {
		return s.sig
	}
	ks := make([]string, 0, len(s.keys))
	for k := range s.keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	b := make([]byte, 0, 16*len(ks))
	for _, k := range ks {
		b = append(b, k...)
		b = append(b, ';')
	}
	s.sig, s.sigOK = string(b), true
	return s.sig
}

// NumClauses reports how many (deduplicated) clauses have been added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Add inserts a clause. Duplicate clauses (after canonicalization) are
// ignored. Adding an empty clause makes the formula unsatisfiable.
func (s *Solver) Add(c Clause) {
	canon := canonicalize(c)
	if canon == nil {
		return // tautology
	}
	k := key(canon)
	if s.keys[k] {
		return
	}
	s.keys[k] = true
	s.clauses = append(s.clauses, canon)
	s.sig, s.sigOK = "", false
}

// Block adds the blocking clause for a cube: "no abstraction with all of
// pos on and all of neg off", i.e. the clause ⋁{¬x | x ∈ pos} ∨ ⋁{x | x ∈ neg}.
// An empty cube blocks every abstraction (adds the empty clause).
func (s *Solver) Block(pos, neg uset.Set) {
	s.Add(BlockingClause(pos, neg))
}

// BlockingClause builds the blocking clause of a cube without adding it —
// the warm-start layer uses it to turn stored cubes back into clauses.
func BlockingClause(pos, neg uset.Set) Clause {
	c := make(Clause, 0, pos.Len()+neg.Len())
	for _, v := range pos.Elems() {
		c = append(c, Lit{Var: v, Neg: true})
	}
	for _, v := range neg.Elems() {
		c = append(c, Lit{Var: v})
	}
	return c
}

// SeedClauses bulk-loads clauses carried over from a previous solve (the
// warm-start entry point). Semantically it is just Add in a loop; it reports
// how many clauses were genuinely added after canonicalization and
// deduplication, so callers can account seeded clauses separately from
// learned ones.
func (s *Solver) SeedClauses(cs []Clause) int {
	before := len(s.clauses)
	for _, c := range cs {
		s.Add(c)
	}
	return len(s.clauses) - before
}

// canonicalize sorts, dedups, and detects tautologies (returns nil for a
// tautological clause, which can be dropped; an empty non-nil clause is
// falsity).
func canonicalize(c Clause) Clause {
	out := make(Clause, len(c))
	copy(out, c)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var != out[j].Var {
			return out[i].Var < out[j].Var
		}
		return !out[i].Neg && out[j].Neg
	})
	dedup := out[:0]
	for i, l := range out {
		if i > 0 && l == out[i-1] {
			continue
		}
		if i > 0 && l.Var == out[i-1].Var && l.Neg != out[i-1].Neg {
			return nil // x ∨ ¬x
		}
		dedup = append(dedup, l)
	}
	if len(dedup) == 0 {
		return Clause{} // preserve "empty clause = false"
	}
	return dedup
}

func key(c Clause) string {
	b := make([]byte, 0, len(c)*4)
	for _, l := range c {
		if l.Neg {
			b = append(b, '-')
		}
		b = appendInt(b, l.Var)
		b = append(b, ',')
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// engine is the search behind a Solver that fell back: a dense mirror of
// the clause set. Variables are
// renamed to contiguous dense indices, and clause i is a pair of bit masks
// over them, pos[i*w:(i+1)*w] and neg[i*w:(i+1)*w], holding its positive and
// negative literals in w = ⌈variables/64⌉ words. Each literal has an
// occurrence list of the clauses containing it. The mirror is append-only
// and synced lazily from Solver.clauses, so Add stays cheap and clones share
// the already-built prefix. When a new variable needs one more word per
// mask, the masks are copied into fresh arrays at the new width, so a clone
// that shares the old arrays never sees them change. Scratch arrays
// (assignment masks, trail, lower-bound mask) are not cloned; they are
// rebuilt on the next search.
type engine struct {
	vmap   map[int]int32 // external variable -> dense index
	dvar   []int         // dense index -> external variable
	w      int           // words per mask
	pos    []uint64      // positive literals, w words per clause
	neg    []uint64      // negative literals, w words per clause
	occ    [][]int32     // literal (dense<<1 | neg) -> clauses containing it
	synced int           // prefix of Solver.clauses mirrored into the masks

	// hasEmpty records that an empty clause (falsity) was added; the formula
	// is then permanently unsatisfiable.
	hasEmpty bool

	// Branch order: dense indices sorted by external variable index, so the
	// DFS still visits models in external lexicographic order. Rebuilt (as a
	// fresh slice — clones may share the old one) when a variable interns.
	order   []int32
	orderOK bool

	// Search scratch, reset at the start of every run: the variables
	// assigned true and false (w words each), the trail of assigned
	// variables, and the variables of the clauses the lower bound counted.
	tm, fm []uint64
	trail  []int32
	lbUsed []uint64
}

// engine returns the solver's engine, synced with every clause added since
// the previous call.
func (s *Solver) engine() *engine {
	if s.eng == nil {
		s.eng = &engine{vmap: make(map[int]int32)}
	}
	e := s.eng
	for _, c := range s.clauses[e.synced:] {
		e.addClause(c)
	}
	e.synced = len(s.clauses)
	return e
}

// addClause mirrors one canonical clause into the dense masks.
func (e *engine) addClause(c Clause) {
	if len(c) == 0 {
		e.hasEmpty = true
		return
	}
	var buf [16]int32
	lits := buf[:0] // dense literals (dense<<1 | neg)
	for _, l := range c {
		dv, ok := e.vmap[l.Var]
		if !ok {
			dv = int32(len(e.dvar))
			e.vmap[l.Var] = dv
			e.dvar = append(e.dvar, l.Var)
			e.occ = append(e.occ, nil, nil)
			e.orderOK = false
		}
		lit := dv << 1
		if l.Neg {
			lit |= 1
		}
		lits = append(lits, lit)
	}
	if w := (len(e.dvar) + 63) >> 6; w > e.w {
		e.widen(w)
	}
	ci := int32(len(e.pos) / e.w)
	e.pos = append(e.pos, make([]uint64, e.w)...)
	e.neg = append(e.neg, make([]uint64, e.w)...)
	pos, neg := e.pos[len(e.pos)-e.w:], e.neg[len(e.neg)-e.w:]
	for _, lit := range lits {
		dv := lit >> 1
		if lit&1 == 1 {
			neg[dv>>6] |= 1 << (dv & 63)
		} else {
			pos[dv>>6] |= 1 << (dv & 63)
		}
		e.occ[lit] = append(e.occ[lit], ci)
	}
}

// widen copies the masks into fresh arrays of w words per clause.
func (e *engine) widen(w int) {
	n := 0
	if e.w > 0 {
		n = len(e.pos) / e.w
	}
	pos, neg := make([]uint64, n*w), make([]uint64, n*w)
	for i := 0; i < n; i++ {
		copy(pos[i*w:], e.pos[i*e.w:(i+1)*e.w])
		copy(neg[i*w:], e.neg[i*e.w:(i+1)*e.w])
	}
	e.pos, e.neg, e.w = pos, neg, w
}

// clone copies the engine for an independent solver. Append-only slices are
// shared with their capacity clamped to the current length, so a later
// append by either side reallocates instead of scribbling on the shared
// backing array (clones are taken concurrently by the batch scheduler).
func (e *engine) clone() *engine {
	ne := &engine{
		vmap:     make(map[int]int32, len(e.vmap)),
		dvar:     e.dvar[:len(e.dvar):len(e.dvar)],
		w:        e.w,
		pos:      e.pos[:len(e.pos):len(e.pos)],
		neg:      e.neg[:len(e.neg):len(e.neg)],
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

// ensureOrder rebuilds the branch order after new variables interned.
func (e *engine) ensureOrder() {
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

// Minimum returns a minimum-cost model of the accumulated clauses as the
// set of true variables, or ok=false if the formula is unsatisfiable.
func (s *Solver) Minimum() (model uset.Set, ok bool) {
	return s.MinimumBudget(nil)
}

// MinimumBudget is Minimum under a cooperative budget: the call polls b once
// on entry and once per diagram node made (or search node visited, after a
// fallback), and gives up when the budget trips, returning ok=false even if
// some (possibly non-minimum) model was already found. Callers must
// therefore check b.Tripped() before reading ok=false as unsatisfiability. A
// nil budget never trips. An aborted call keeps every apply it completed, so
// the next call still answers exactly.
func (s *Solver) MinimumBudget(b *budget.Budget) (model uset.Set, ok bool) {
	work := 0
	reused := false
	if s.rec != nil && s.rec.Enabled() {
		start := time.Now()
		defer func() {
			s.rec.Timing(obs.MinsatMinimum, time.Since(start))
			s.rec.Count(obs.MinsatSearchNodes, int64(work))
			if reused {
				s.rec.Count(obs.MinsatIncrementalReuse, 1)
			}
		}()
	}
	if !s.dropped {
		var fits bool
		model, ok, fits = s.diagramMinimum(b, &work, &reused)
		if fits {
			return model, ok
		}
		// Past the node cap even after compaction: drop the diagram for good
		// and search, cold.
		s.bdd, s.dropped = nil, true
		if s.rec != nil && s.rec.Enabled() {
			s.rec.Count(obs.MinsatFallback, 1)
		}
	}
	return s.search(b, &work)
}

// diagramMinimum conjoins the clauses added since the last call into the
// diagram and walks it. An apply that reaches the node cap compacts the
// diagram and is retried once; fits=false reports that compaction did not
// make room, and the diagram must then be dropped.
func (s *Solver) diagramMinimum(b *budget.Budget, made *int, reused *bool) (model uset.Set, ok, fits bool) {
	if s.bdd == nil {
		s.bdd = newDiagram(nodeCap)
	}
	d := s.bdd
	if !b.Poll() {
		return nil, false, true
	}
	for ; d.synced < len(s.clauses) && d.root != bddFalse; d.synced++ {
		r := d.conjoin(s.clauses[d.synced], b, made)
		if r == applyFull {
			// Half the cap left free after compaction amortizes its cost
			// over at least as many new nodes as it copied.
			d = d.compact()
			s.bdd = d
			if 2*len(d.nodes) > d.limit {
				return nil, false, false
			}
			r = d.conjoin(s.clauses[d.synced], b, made)
		}
		switch r {
		case applyTripped:
			return nil, false, true
		case applyFull:
			return nil, false, false
		}
		d.root = r
	}
	if d.walked == d.root {
		*reused = true
		return d.model, d.root != bddFalse, true
	}
	d.walked, d.model = d.root, nil
	if d.root == bddFalse {
		return nil, false, true
	}
	d.model = d.walk()
	return d.model, true, true
}

// search answers from the clause-mask engine, synced with every clause
// added since its previous call.
func (s *Solver) search(b *budget.Budget, nodes *int) (model uset.Set, ok bool) {
	e := s.engine()
	if !b.Poll() || e.hasEmpty {
		return nil, false
	}
	return e.run(b, nodes)
}

// clauseSatisfied reports whether the model (set of true variables)
// satisfies the clause.
func clauseSatisfied(c Clause, model uset.Set) bool {
	for _, l := range c {
		if model.Has(l.Var) != l.Neg {
			return true
		}
	}
	return false
}

// run executes the branch-and-bound search over the dense clause masks and
// returns the lex-least minimum model, or ok=false when the clauses are
// unsatisfiable or the budget tripped.
func (e *engine) run(b *budget.Budget, nodes *int) (model uset.Set, ok bool) {
	e.ensureOrder()
	if len(e.tm) != e.w {
		e.tm, e.fm, e.lbUsed = make([]uint64, e.w), make([]uint64, e.w), make([]uint64, e.w)
	} else {
		clear(e.tm)
		clear(e.fm)
	}
	e.trail = e.trail[:0]
	s := search{engine: e, b: b, nodes: nodes, best: -1}
	s.node(0, 0, -1)
	if s.aborted || s.best < 0 {
		return nil, false
	}
	return uset.New(s.bestModel...), true
}

// search is the state of one branch-and-bound run.
type search struct {
	*engine
	b         *budget.Budget
	nodes     *int
	best      int // cost of bestModel, or -1 before the first model
	bestModel []int
	aborted   bool // the budget tripped
}

// node visits one search node: it assigns the branch variable (none at the
// root), propagates, prunes by cost and lower bound, and branches on the
// next unassigned variable in order, false before true. The branch variable
// is pushed on the trail by the child, so propagate sees it as the queue
// seed and undo clears it together with its consequences; the parent then
// reassigns it for the true branch.
func (s *search) node(idx int32, cost int, branched int32) {
	if s.aborted {
		return
	}
	if !s.b.Poll() {
		s.aborted = true
		return
	}
	*s.nodes++
	if s.best >= 0 && cost >= s.best {
		return // bound: cannot improve
	}
	mark := len(s.trail)
	var extraTrue int
	var conflict bool
	if branched < 0 {
		extraTrue, conflict = s.rootPropagate()
	} else {
		s.trail = append(s.trail, branched)
		extraTrue, conflict = s.propagate(mark)
	}
	cost += extraTrue
	if conflict || (s.best >= 0 && (cost >= s.best || s.boundReaches(s.best-cost))) {
		s.undo(mark)
		return
	}
	// Find the next unassigned branch variable.
	i := idx
	for int(i) < len(s.order) && s.assigned(s.order[i]) {
		i++
	}
	if int(i) == len(s.order) {
		// All mentioned variables assigned and no conflict: model found.
		if s.best < 0 || cost < s.best {
			s.best = cost
			s.bestModel = s.bestModel[:0]
			for _, dv := range s.order {
				if s.tm[dv>>6]&(1<<(dv&63)) != 0 {
					s.bestModel = append(s.bestModel, s.dvar[dv])
				}
			}
		}
		s.undo(mark)
		return
	}
	v := s.order[i]
	s.fm[v>>6] |= 1 << (v & 63) // cheap branch first → lexicographically least
	s.node(i+1, cost, v)
	if s.aborted {
		return // scratch is reset at the next run
	}
	s.unassign(v) // still false if the child pruned before pushing it
	s.tm[v>>6] |= 1 << (v & 63)
	s.node(i+1, cost+1, v)
	s.unassign(v)
	s.undo(mark)
}

// assigned reports whether dense variable v has a value.
func (s *search) assigned(v int32) bool {
	return (s.tm[v>>6]|s.fm[v>>6])&(1<<(v&63)) != 0
}

// unassign clears dense variable v's value.
func (s *search) unassign(v int32) {
	s.tm[v>>6] &^= 1 << (v & 63)
	s.fm[v>>6] &^= 1 << (v & 63)
}

// undo unassigns every variable the trail took on after mark.
func (s *search) undo(mark int) {
	for _, v := range s.trail[mark:] {
		s.unassign(v)
	}
	s.trail = s.trail[:mark]
}

// unit classifies clause ci under the current assignment. It returns the
// clause's only unassigned literal (dense<<1 | neg) when no literal is true
// and exactly one is unassigned, and -1 otherwise; conflict reports that
// every literal is false.
func (s *search) unit(ci int32) (lit int32, conflict bool) {
	w := s.w
	pos, neg := s.pos[int(ci)*w:][:w], s.neg[int(ci)*w:][:w]
	tm, fm := s.tm[:w], s.fm[:w]
	lit = -1
	for k := range pos {
		if pos[k]&tm[k]|neg[k]&fm[k] != 0 {
			return -1, false // satisfied
		}
		u := (pos[k] | neg[k]) &^ (tm[k] | fm[k])
		if u == 0 {
			continue
		}
		if lit >= 0 || u&(u-1) != 0 {
			return -1, false // two unassigned literals
		}
		bit := bits.TrailingZeros64(u)
		lit = int32(k*64+bit) << 1
		if neg[k]&(1<<bit) != 0 {
			lit |= 1
		}
	}
	return lit, lit < 0
}

// imply assigns the unit literal's variable so that the literal holds and
// pushes it on the trail; it returns 1 when the variable became true.
func (s *search) imply(lit int32) int {
	v := lit >> 1
	s.trail = append(s.trail, v)
	if lit&1 == 1 {
		s.fm[v>>6] |= 1 << (v & 63)
		return 0
	}
	s.tm[v>>6] |= 1 << (v & 63)
	return 1
}

// propagate drains the trail from position start. A variable's value makes
// exactly one of its literals false, and only the clauses containing that
// literal can have become unit or empty, so each assignment visits just
// their occurrence list, assigning units and detecting conflicts until
// fixpoint. Unit propagation is confluent, so the fixpoint — and whether a
// conflict exists in it — does not depend on the scan order.
func (s *search) propagate(start int) (setTrue int, conflict bool) {
	for qi := start; qi < len(s.trail); qi++ {
		v := s.trail[qi]
		falsified := v << 1 // v false: its positive literal is false
		if s.tm[v>>6]&(1<<(v&63)) != 0 {
			falsified |= 1
		}
		for _, ci := range s.occ[falsified] {
			lit, conflict := s.unit(ci)
			if conflict {
				return setTrue, true
			}
			if lit >= 0 {
				setTrue += s.imply(lit)
			}
		}
	}
	return setTrue, false
}

// rootPropagate seeds the trail from the clauses that are unit in insertion
// order (assignments made on the way count) and drains it.
func (s *search) rootPropagate() (setTrue int, conflict bool) {
	for ci := int32(0); int(ci)*s.w < len(s.pos); ci++ {
		lit, conflict := s.unit(ci)
		if conflict {
			return setTrue, true
		}
		if lit >= 0 {
			setTrue += s.imply(lit)
		}
	}
	st, conf := s.propagate(0)
	return setTrue + st, conf
}

// boundReaches reports whether a lower bound on the variables that still
// have to become true reaches need, in which case the node cannot improve on
// the best model. The bound counts pairwise variable-disjoint unsatisfied
// clauses whose unassigned literals are all positive: each forces at least
// one more true variable, so their count is admissible. Visiting clauses in
// insertion order keeps the greedy count identical to a fresh solver's; the
// count stops at need, which decides the same pruning as the full count.
func (s *search) boundReaches(need int) bool {
	w := s.w
	tm, fm, used := s.tm[:w], s.fm[:w], s.lbUsed[:w]
	clear(used)
	lb := 0
clauses:
	for base := 0; base < len(s.pos); base += w {
		pos, neg := s.pos[base:][:w], s.neg[base:][:w]
		for k := range pos {
			// Satisfied (a true positive or a false negative literal),
			// satisfiable for free (an unassigned negative literal), or
			// sharing a variable with a counted clause.
			if pos[k]&tm[k]|neg[k]&^tm[k]|pos[k]&^fm[k]&used[k] != 0 {
				continue clauses
			}
		}
		if lb++; lb >= need {
			return true
		}
		for k := range pos {
			used[k] |= pos[k] &^ fm[k]
		}
	}
	return false
}

// Satisfies reports whether the model (set of true variables) satisfies all
// accumulated clauses.
func (s *Solver) Satisfies(model uset.Set) bool {
	for _, c := range s.clauses {
		if !clauseSatisfied(c, model) {
			return false
		}
	}
	return true
}
