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
// Every node made is charged one budget poll. A trip in the middle of an
// apply leaves the root and the count of conjoined clauses as they were, so
// the next call resumes from the last complete apply and still answers
// exactly.
//
// # The node cap
//
// A diagram may grow exponentially in the number of variables, although the
// benchmark suite's stays under half the cap (64,032 nodes at most, on its
// hardest query run to 4,738 iterations). The node arena only grows: an
// apply leaves the nodes of the diagram it replaced behind. When an apply
// would pass a fixed node cap (nodeCap), the solver compacts the diagram to
// the nodes its root reaches and retries the clause once. When the
// compacted arena still holds more than half the cap, or the retry fills
// the arena again, the call trips its budget with cause budget.Space and
// returns ok=false, as under any other trip: the diagram stays at its last
// complete apply, and the caller reports the query Exhausted. A nil budget
// cannot record the trip, so such a call panics.
//
// # Clones
//
// Clone shares nothing mutable with its parent, since the batch scheduler
// clones solvers concurrently. A clone holds a compacted copy of its
// parent's diagram, the nodes its root reaches in a fresh arena and unique
// table, and keeps the cached answer.
package minsat

import (
	"fmt"
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
	// Minimum and synced to the clause list on each call.
	bdd *diagram
}

// Instrument attaches an observability recorder: every Minimum call reports
// its wall time (timer "minsat.minimum") and the diagram nodes it made, the
// work it charged to the budget (counter "minsat.search_nodes"); calls
// answered entirely from the previous answer increment
// "minsat.incremental_reuse". Clones inherit the recorder.
func (s *Solver) Instrument(rec obs.Recorder) { s.rec = rec }

// New returns a solver over variables 0..n-1.
func New(n int) *Solver {
	return &Solver{n: n, keys: make(map[string]bool)}
}

// NumVars reports the size of the variable universe.
func (s *Solver) NumVars() int { return s.n }

// Clone returns an independent copy of the solver's clause set and diagram.
// TRACER's multi-query driver clones solvers when a query group splits (§6);
// the clone resumes with its parent's diagram, so a group's first Minimum
// after a split is incremental too.
func (s *Solver) Clone() *Solver {
	out := New(s.n)
	out.rec = s.rec
	out.clauses = append([]Clause(nil), s.clauses...)
	for k := range s.keys {
		out.keys[k] = true
	}
	out.sig, out.sigOK = s.sig, s.sigOK
	if s.bdd != nil {
		out.bdd = s.bdd.compact()
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

// Minimum returns a minimum-cost model of the accumulated clauses as the
// set of true variables, or ok=false if the formula is unsatisfiable. It
// runs under no budget, so it panics on a diagram past the node cap.
func (s *Solver) Minimum() (model uset.Set, ok bool) {
	return s.MinimumBudget(nil)
}

// MinimumBudget is Minimum under a cooperative budget: the call polls b once
// on entry and once per diagram node made, and gives up when the budget
// trips, returning ok=false. Callers must therefore check b.Tripped() before
// reading ok=false as unsatisfiability. A diagram that cannot fit the node
// cap trips b with cause budget.Space; a nil budget never trips, so there
// the call panics instead of answering. An aborted call keeps every apply it
// completed, so the next call still answers exactly.
func (s *Solver) MinimumBudget(b *budget.Budget) (model uset.Set, ok bool) {
	made := 0
	reused := false
	if s.rec != nil && s.rec.Enabled() {
		start := time.Now()
		defer func() {
			s.rec.Timing(obs.MinsatMinimum, time.Since(start))
			s.rec.Count(obs.MinsatSearchNodes, int64(made))
			if reused {
				s.rec.Count(obs.MinsatIncrementalReuse, 1)
			}
		}()
	}
	if s.bdd == nil {
		s.bdd = newDiagram(nodeCap)
	}
	d := s.bdd
	if !b.Poll() {
		return nil, false
	}
	for ; d.synced < len(s.clauses) && d.root != bddFalse; d.synced++ {
		r := d.conjoin(s.clauses[d.synced], b, &made)
		if r == applyFull {
			// Compact and retry once. Half the cap left free after
			// compaction amortizes its cost over at least as many new nodes
			// as it copied.
			d = d.compact()
			s.bdd = d
			if 2*len(d.nodes) <= d.limit {
				r = d.conjoin(s.clauses[d.synced], b, &made)
			}
		}
		switch r {
		case applyTripped:
			return nil, false
		case applyFull:
			if b == nil {
				panic(fmt.Sprintf("minsat: the viable set needs a diagram of more than %d nodes (nodeCap), "+
					"and a nil budget cannot trip", d.limit))
			}
			b.Trip(budget.Space)
			return nil, false
		}
		d.root = r
	}
	if d.walked == d.root {
		reused = true
		return d.model, d.root != bddFalse
	}
	d.walked, d.model = d.root, nil
	if d.root == bddFalse {
		return nil, false
	}
	d.model = d.walk()
	return d.model, true
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
