// Package nullness implements a parametric null-dereference client over
// the shared IR: a must-non-nil analysis whose abstraction parameter
// vector selects, per cell (local or field), whether the cell gets
// precise value tracking or the coarse ⊤ summary.
//
// The abstract domain maps cells to {⊤, nil, nn}: nil means "definitely
// null on every path", nn means "definitely non-null on every path", and
// ⊤ means unknown. The abstraction parameter p ⊆ cells chooses which
// cells are tracked; an untracked cell degrades to ⊤ on every update, so
// its precision is exactly what the parameter pays for. Cost is the
// number of tracked cells. Fields are summarized weakly: one cell per
// field name covers that field of every object, so an allocation (whose
// fresh object has all-null fields) folds nil into every field summary.
package nullness

import (
	"fmt"
	"strings"

	"tracer/internal/dataflow"
	"tracer/internal/intern"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// Value is an abstract value: U (unknown, the coarse ⊤), Nil (must-nil),
// or NN (must-non-nil).
type Value uint8

const (
	U Value = iota
	Nil
	NN
)

func (v Value) String() string {
	switch v {
	case U:
		return "U"
	case Nil:
		return "NIL"
	case NN:
		return "NN"
	}
	return "?"
}

// Values lists the abstract values, used when expanding literal negations.
var Values = [3]Value{U, Nil, NN}

// State is an interned environment (locals ++ fields → Value).
type State int

// Analysis is the parametric nullness analysis over a fixed universe of
// locals and fields. Unlike the escape client, the parameter space is the
// cell space itself: parameter i < Locals.Len() tracks local i, and
// parameter Locals.Len()+j tracks field j — parameter indices coincide
// with environment slots.
type Analysis struct {
	Locals *intern.Strings
	Fields *intern.Strings

	envs *intern.Strings // interned environment payloads
}

// New builds an analysis over the given universes. Cell indices (locals
// first, then fields) are the parameter indices of the abstraction family
// (on = tracked precisely).
func New(locals, fields []string) *Analysis {
	a := &Analysis{
		Locals: intern.NewStrings(),
		Fields: intern.NewStrings(),
		envs:   intern.NewStrings(),
	}
	for _, v := range locals {
		a.Locals.ID(v)
	}
	for _, f := range fields {
		a.Fields.ID(f)
	}
	return a
}

// slots is the environment width — also the parameter count.
func (a *Analysis) slots() int { return a.Locals.Len() + a.Fields.Len() }

// NumParams returns the size of the cell space (the family is 2^cells).
func (a *Analysis) NumParams() int { return a.slots() }

// localSlot and fieldSlot map names to environment slots, which double as
// parameter indices.
func (a *Analysis) localSlot(v string) int { return a.Locals.ID(v) }
func (a *Analysis) fieldSlot(f string) int { return a.Locals.Len() + a.Fields.ID(f) }

// ParamName names parameter i. Field cells are prefixed with "." so they
// can never collide with a local of the same name (qualified locals never
// start with a dot).
func (a *Analysis) ParamName(i int) string {
	if i < a.Locals.Len() {
		return a.Locals.Value(i)
	}
	return "." + a.Fields.Value(i-a.Locals.Len())
}

// internEnv canonicalizes an environment payload. The payload is not
// retained (intern.Strings.IDBytes copies on miss), so callers may hand
// in reusable scratch buffers.
func (a *Analysis) internEnv(env []byte) State { return State(a.envs.IDBytes(env)) }

// env returns the payload of a state; the result must not be mutated.
func (a *Analysis) env(d State) string { return a.envs.Value(int(d)) }

// get reads slot i of state d.
func (a *Analysis) get(d State, i int) Value { return Value(a.env(d)[i]) }

// Local reads the abstract value of local v in d.
func (a *Analysis) Local(d State, v string) Value { return a.get(d, a.localSlot(v)) }

// Field reads the abstract value of field f in d.
func (a *Analysis) Field(d State, f string) Value { return a.get(d, a.fieldSlot(f)) }

// set returns d with slot i set to val.
func (a *Analysis) set(d State, i int, val Value) State {
	cur := a.env(d)
	if Value(cur[i]) == val {
		return d
	}
	// The edited payload usually names an already-interned state, so build it
	// in a stack buffer: internEnv only copies on a genuine miss.
	var arr [512]byte
	buf := editBuf(arr[:], cur)
	buf[i] = byte(val)
	return a.internEnv(buf)
}

// editBuf copies cur into arr when it fits, falling back to the heap for
// extraordinarily wide environments.
func editBuf(arr []byte, cur string) []byte {
	if len(cur) <= len(arr) {
		buf := arr[:len(cur)]
		copy(buf, cur)
		return buf
	}
	return []byte(cur)
}

// Initial returns the state mapping every cell to Nil: locals are
// uninitialized and no objects exist yet, so every field summary is
// vacuously null.
func (a *Analysis) Initial() State {
	buf := make([]byte, a.slots())
	for i := range buf {
		buf[i] = byte(Nil)
	}
	return a.internEnv(buf)
}

// StateOf builds a state from explicit local and field bindings; unnamed
// slots are U. It is intended for tests.
func (a *Analysis) StateOf(locals map[string]Value, fields map[string]Value) State {
	buf := make([]byte, a.slots())
	for v, val := range locals {
		buf[a.localSlot(v)] = byte(val)
	}
	for f, val := range fields {
		buf[a.fieldSlot(f)] = byte(val)
	}
	return a.internEnv(buf)
}

// AllStates enumerates the full abstract domain: every assignment of
// {U, Nil, NN} to every cell. Exponential (3^slots); for exhaustive
// soundness tests on small universes.
func (a *Analysis) AllStates() []State {
	n := a.slots()
	total := 1
	for i := 0; i < n; i++ {
		total *= 3
	}
	out := make([]State, 0, total)
	buf := make([]byte, n)
	for i := 0; i < total; i++ {
		x := i
		for s := 0; s < n; s++ {
			buf[s] = byte(x % 3)
			x /= 3
		}
		out = append(out, a.internEnv(buf))
	}
	return out
}

// AllAbstractions enumerates the abstraction family 2^cells.
// Exponential; for tests on small universes.
func (a *Analysis) AllAbstractions() []uset.Set {
	n := a.slots()
	out := make([]uset.Set, 0, 1<<n)
	for bits := 0; bits < 1<<n; bits++ {
		var p uset.Set
		for c := 0; c < n; c++ {
			if bits&(1<<c) != 0 {
				p = p.Add(c)
			}
		}
		out = append(out, p)
	}
	return out
}

// combine joins two abstract values: agreement is preserved, disagreement
// is unknown.
func combine(x, y Value) Value {
	if x == y {
		return x
	}
	return U
}

// assign writes val into slot i, degraded to U when the cell is
// untracked — the single point where precision is bought by a parameter.
func (a *Analysis) assign(p uset.Set, d State, i int, val Value) State {
	if !p.Has(i) {
		val = U
	}
	return a.set(d, i, val)
}

// weakenFields folds a fresh all-null object into every field summary:
// must-non-nil summaries become unknown, must-nil and unknown ones are
// already closed under it. Parameter-independent (an untracked field is
// never NN).
func (a *Analysis) weakenFields(d State) State {
	cur := a.env(d)
	var arr [512]byte
	buf := editBuf(arr[:], cur)
	for i := a.Locals.Len(); i < len(buf); i++ {
		if Value(buf[i]) == NN {
			buf[i] = byte(U)
		}
	}
	return a.internEnv(buf)
}

// Format renders a state like the α annotations of Fig 6.
func (a *Analysis) Format(d State) string {
	var parts []string
	for i := 0; i < a.Locals.Len(); i++ {
		parts = append(parts, fmt.Sprintf("%s↦%s", a.Locals.Value(i), a.get(d, i)))
	}
	for i := 0; i < a.Fields.Len(); i++ {
		parts = append(parts, fmt.Sprintf("%s↦%s", a.Fields.Value(i), a.get(d, a.Locals.Len()+i)))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Transfer instantiates the transfer function at abstraction p, the set
// of tracked cell indices.
func (a *Analysis) Transfer(p uset.Set) dataflow.Transfer[State] {
	return func(at lang.Atom, d State) State {
		return a.step(p, at, d)
	}
}

// TransferDep is Transfer with dependency reporting for the incremental
// solver (dataflow.Chain): each application also returns the dependency
// literal naming the parameter it consulted. Every atom consults the
// abstraction in at most one place — the tracked bit of the cell it
// writes; reads and the allocation field-weakening are parameter-free.
func (a *Analysis) TransferDep(p uset.Set) dataflow.DepTransfer[State] {
	return func(at lang.Atom, d State) (State, int32) {
		return a.step(p, at, d), a.dep(p, at)
	}
}

func (a *Analysis) dep(p uset.Set, at lang.Atom) int32 {
	switch at := at.(type) {
	case lang.Alloc:
		return dataflow.DepLit(p, a.localSlot(at.V))
	case lang.Move:
		return dataflow.DepLit(p, a.localSlot(at.Dst))
	case lang.MoveNull:
		return dataflow.DepLit(p, a.localSlot(at.V))
	case lang.Load:
		return dataflow.DepLit(p, a.localSlot(at.Dst))
	case lang.Store:
		return dataflow.DepLit(p, a.fieldSlot(at.F))
	case lang.Invoke:
		return dataflow.DepLit(p, a.localSlot(at.V))
	}
	return 0
}

func (a *Analysis) step(p uset.Set, at lang.Atom, d State) State {
	switch at := at.(type) {
	case lang.Alloc:
		return a.assign(p, a.weakenFields(d), a.localSlot(at.V), NN)
	case lang.Move:
		return a.assign(p, d, a.localSlot(at.Dst), a.Local(d, at.Src))
	case lang.MoveNull:
		return a.assign(p, d, a.localSlot(at.V), Nil)
	case lang.GlobalWrite:
		return d
	case lang.GlobalRead:
		// A global may hold anything; the read is ⊤ whether tracked or not.
		return a.set(d, a.localSlot(at.V), U)
	case lang.Load:
		return a.assign(p, d, a.localSlot(at.Dst), a.Field(d, at.F))
	case lang.Store:
		return a.assign(p, d, a.fieldSlot(at.F), combine(a.Field(d, at.F), a.Local(d, at.Src)))
	case lang.Invoke:
		// A dispatched call witnesses a non-nil receiver on every
		// continuing path.
		return a.assign(p, d, a.localSlot(at.V), NN)
	}
	return d
}

// Query asks whether local V is definitely non-nil (safe to dereference)
// at a program point. A source point may correspond to several CFG nodes
// after inlining.
type Query struct {
	Nodes []int
	V     string
}

// Holds reports whether a single abstract state satisfies the query.
func (a *Analysis) Holds(q Query, d State) bool { return a.Local(d, q.V) == NN }
