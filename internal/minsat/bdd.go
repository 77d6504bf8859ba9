package minsat

import (
	"math"

	"tracer/internal/budget"
	"tracer/internal/uset"
)

// nodeCap bounds a diagram's node arena. An apply that would grow the arena
// past it compacts the diagram first; a call whose compacted diagram still
// fills more than half the cap trips its budget (budget.Space) instead of
// answering. The benchmark suite's largest arena has 4,220 nodes at 100
// iterations per query, and 64,032 when its hardest query runs to 4,738;
// the cap leaves room above that while bounding what an adversarial clause
// set costs before the trip: a random 60-vertex cover (the tests'
// hardInstance(60)) makes 394,129 nodes, about 0.4 s on a 2-vCPU VM.
const nodeCap = 1 << 17

// Terminal node ids.
const (
	bddFalse int32 = 0
	bddTrue  int32 = 1
)

// Sentinel results of an apply that did not finish.
const (
	applyTripped int32 = -1 // the budget tripped
	applyFull    int32 = -2 // the arena reached its cap
)

// noVar is the variable of the two terminals: below every real variable.
const noVar = math.MaxInt32

// unreachable is the minimum cost of the false terminal.
const unreachable = math.MaxInt32 / 2

// bddNode is a decision node: if variable v then hi else lo. min is the
// fewest true variables on any path from the node to the true terminal
// (unreachable for the false terminal), fixed when the node is made.
type bddNode struct {
	v, lo, hi, min int32
}

// diagram is a hash-consed reduced ordered BDD of the viable set: the
// conjunction of a prefix of the solver's clauses. Variables are ordered by
// parameter index, smallest at the top. Nodes live in an append-only arena;
// compact copies only the nodes the root reaches into a fresh one.
type diagram struct {
	nodes []bddNode
	// table is the open-addressed unique table: a power of two of slots, at
	// most half full, each holding a node's (v, lo, hi) and id (0 = empty;
	// the terminals are never in it).
	table []tableSlot
	limit int // arena size at which an apply stops (nodeCap)

	root   int32 // the conjunction of the first synced clauses
	synced int

	// walked is the root the cached answer (model, or UNSAT when root is
	// false) was read from; -1 before the first answer.
	walked int32
	model  uset.Set

	// Scratch of one apply: the clause being conjoined, the memo of its
	// sub-results by (node, literal position), and the budget and node
	// count it charges.
	lits Clause
	memo memo
	b    *budget.Budget
	made *int
}

type tableSlot struct{ v, lo, hi, id int32 }

func newDiagram(limit int) *diagram {
	d := &diagram{
		nodes:  make([]bddNode, 2, 64),
		table:  make([]tableSlot, 64),
		limit:  limit,
		root:   bddTrue,
		walked: -1,
	}
	d.nodes[bddFalse] = bddNode{v: noVar, min: unreachable}
	d.nodes[bddTrue] = bddNode{v: noVar}
	return d
}

// mix64 is a 64-bit finalizer (splitmix64's), so nearby keys land in
// unrelated slots.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// slot returns the index of the table slot holding (v, lo, hi), or of the
// empty slot where it belongs.
func (d *diagram) slot(v, lo, hi int32) int {
	mask := len(d.table) - 1
	i := int(mix64(uint64(uint32(lo))<<32|uint64(uint32(hi))^uint64(uint32(v))*0x9e3779b97f4a7c15)) & mask
	for {
		t := &d.table[i]
		if t.id == 0 || t.v == v && t.lo == lo && t.hi == hi {
			return i
		}
		i = (i + 1) & mask
	}
}

// insert appends n, which is not in the table, and enters it at slot i (as
// slot returned it), doubling the table first if it would pass half full.
func (d *diagram) insert(n bddNode, i int) int32 {
	id := int32(len(d.nodes))
	d.nodes = append(d.nodes, n)
	if 2*(len(d.nodes)-2) > len(d.table) {
		old := d.table
		d.table = make([]tableSlot, 2*len(old))
		for _, t := range old {
			if t.id != 0 {
				d.table[d.slot(t.v, t.lo, t.hi)] = t
			}
		}
		i = d.slot(n.v, n.lo, n.hi)
	}
	d.table[i] = tableSlot{v: n.v, lo: n.lo, hi: n.hi, id: id}
	return id
}

// mk returns the node (v, lo, hi), reduced and shared. A new node is charged
// one budget poll; it fails with applyTripped or applyFull instead of
// growing past the budget or the cap.
func (d *diagram) mk(v, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	i := d.slot(v, lo, hi)
	if id := d.table[i].id; id != 0 {
		return id
	}
	if len(d.nodes) >= d.limit {
		return applyFull
	}
	if !d.b.Poll() {
		return applyTripped
	}
	*d.made++
	return d.insert(bddNode{v: v, lo: lo, hi: hi,
		min: min(d.nodes[lo].min, d.nodes[hi].min+1)}, i)
}

// memo maps (node, literal position) to the node of one apply's sub-result:
// an open-addressed table whose entries belong to the current apply only
// when stamped with its generation, so clearing it is one increment.
type memo struct {
	slots []memoSlot
	gen   uint32
	n     int
}

type memoSlot struct {
	key uint64
	val int32
	gen uint32
}

func (m *memo) reset() {
	m.gen++
	m.n = 0
	if m.gen == 0 { // wrapped: stale stamps could match again
		clear(m.slots)
		m.gen = 1
	}
}

func (m *memo) find(key uint64) int {
	mask := len(m.slots) - 1
	for i := int(mix64(key)) & mask; ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.gen != m.gen || s.key == key {
			return i
		}
	}
}

func (m *memo) get(key uint64) (int32, bool) {
	if len(m.slots) == 0 {
		return 0, false
	}
	s := &m.slots[m.find(key)]
	return s.val, s.gen == m.gen
}

func (m *memo) put(key uint64, val int32) {
	if 2*(m.n+1) > len(m.slots) {
		old := m.slots
		m.slots = make([]memoSlot, max(64, 2*len(old)))
		for _, s := range old {
			if s.gen == m.gen {
				m.slots[m.find(s.key)] = s
			}
		}
	}
	m.slots[m.find(key)] = memoSlot{key: key, val: val, gen: m.gen}
	m.n++
}

// conjoin returns root ∧ c, or a sentinel when the budget or the cap stops
// it (the diagram's root and synced count are the caller's to update).
func (d *diagram) conjoin(c Clause, b *budget.Budget, made *int) int32 {
	if len(c) == 0 {
		return bddFalse
	}
	d.lits, d.b, d.made = c, b, made
	d.memo.reset()
	r := d.and(d.root, 0)
	d.lits, d.b, d.made = nil, nil, nil
	return r
}

// and returns f ∧ (lits[i] ∨ … ∨ lits[len-1]). The literals are sorted by
// variable, so the clause suffix is itself an ordered chain and the result
// is built in one top-down pass over f, memoized by (f, i).
func (d *diagram) and(f int32, i int) int32 {
	if f == bddFalse || i == len(d.lits) {
		return bddFalse
	}
	key := uint64(f)<<32 | uint64(i)
	if r, ok := d.memo.get(key); ok {
		return r
	}
	l := d.lits[i]
	x := int32(l.Var)
	n := d.nodes[f]
	var r int32
	if n.v < x {
		lo := d.and(n.lo, i)
		if lo < 0 {
			return lo
		}
		hi := d.and(n.hi, i)
		if hi < 0 {
			return hi
		}
		r = d.mk(n.v, lo, hi)
	} else {
		f0, f1 := f, f // the cofactors of f at x
		if n.v == x {
			f0, f1 = n.lo, n.hi
		}
		if l.Neg { // x false satisfies the clause
			hi := d.and(f1, i+1)
			if hi < 0 {
				return hi
			}
			r = d.mk(x, f0, hi)
		} else { // x true satisfies the clause
			lo := d.and(f0, i+1)
			if lo < 0 {
				return lo
			}
			r = d.mk(x, lo, f1)
		}
	}
	if r >= 0 {
		d.memo.put(key, r)
	}
	return r
}

// walk reads the lex-least minimum model off the root: at each node it takes
// the low edge (variable false) whenever that edge still reaches the node's
// minimum. Variables the path skips are free and stay false, so the result
// is the cheapest model and, among those, the least in false-before-true
// order by variable index. The root must not be the false terminal.
func (d *diagram) walk() uset.Set {
	var m []int
	for f := d.root; f != bddTrue; {
		n := &d.nodes[f]
		if d.nodes[n.lo].min == n.min {
			f = n.lo
		} else {
			m = append(m, int(n.v))
			f = n.hi
		}
	}
	return uset.Set(m)
}

// compact returns a copy of the diagram that holds only the nodes the root
// reaches, in a fresh arena and unique table, with the same root, synced
// count and cached answer. Children are always made before their parents, so
// one backward pass over the arena marks the reachable nodes and one forward
// pass copies them in order. It makes no node, so it polls and counts
// nothing.
func (d *diagram) compact() *diagram {
	live := make([]bool, len(d.nodes))
	live[d.root] = true
	for id := len(d.nodes) - 1; id >= 2; id-- {
		if live[id] {
			live[d.nodes[id].lo] = true
			live[d.nodes[id].hi] = true
		}
	}
	n := 2
	for _, ok := range live[2:] {
		if ok {
			n++
		}
	}
	size := 64
	for size < 2*n {
		size *= 2
	}
	out := &diagram{
		nodes:  make([]bddNode, 2, n),
		table:  make([]tableSlot, size),
		limit:  d.limit,
		synced: d.synced,
		walked: -1,
	}
	out.nodes[bddFalse], out.nodes[bddTrue] = d.nodes[bddFalse], d.nodes[bddTrue]
	remap := make([]int32, len(d.nodes))
	remap[bddTrue] = bddTrue
	for id := 2; id < len(d.nodes); id++ {
		if live[id] {
			nd := d.nodes[id]
			nd.lo, nd.hi = remap[nd.lo], remap[nd.hi]
			remap[id] = out.insert(nd, out.slot(nd.v, nd.lo, nd.hi))
		}
	}
	out.root = remap[d.root]
	if d.walked == d.root {
		out.walked, out.model = out.root, d.model
	}
	return out
}
