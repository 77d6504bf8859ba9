// Package escape implements the parametric thread-escape analysis of §3.2
// (Fig 5) and its backward meta-analysis (Fig 11).
//
// The analysis abstracts heap objects by two locations: L (thread-local
// only, possibly missing some local objects) and E (escaping objects, null,
// and possibly some local ones), with the invariant that E-summarized
// objects are closed under pointer reachability. The abstraction parameter
// p : H → {L, E} chooses, per allocation site, which summary its objects
// get; cost is the number of L-mapped sites. An abstract state maps locals
// and (fields of L objects) to {L, E, N}.
package escape

import (
	"fmt"
	"sort"
	"strings"

	"tracer/internal/dataflow"
	"tracer/internal/intern"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// Value is an abstract value: N (null), L (thread-local), or E (possibly
// escaping).
type Value uint8

const (
	N Value = iota
	L
	E
)

func (v Value) String() string {
	switch v {
	case N:
		return "N"
	case L:
		return "L"
	case E:
		return "E"
	}
	return "?"
}

// Values lists the abstract values, used when expanding literal negations.
var Values = [3]Value{N, L, E}

// State is an interned environment (locals ++ fields → Value).
type State int

// Analysis is the parametric thread-escape analysis over a fixed universe
// of locals, fields, and allocation sites.
type Analysis struct {
	Locals *intern.Strings
	Fields *intern.Strings
	Sites  *intern.Strings

	envs *intern.Strings // interned environment payloads
}

// New builds an analysis over the given universes. Site indices are the
// parameter indices of the abstraction family (on = mapped to L).
func New(locals, fields, sites []string) *Analysis {
	a := &Analysis{
		Locals: intern.NewStrings(),
		Fields: intern.NewStrings(),
		Sites:  intern.NewStrings(),
		envs:   intern.NewStrings(),
	}
	for _, v := range locals {
		a.Locals.ID(v)
	}
	for _, f := range fields {
		a.Fields.ID(f)
	}
	for _, h := range sites {
		a.Sites.ID(h)
	}
	return a
}

// Universe collects the locals, fields, and sites mentioned by a CFG's
// atoms, each sorted, for building the analysis universe.
func Universe(g *lang.CFG) (locals, fields, sites []string) {
	lm, fm, hm := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, e := range g.Edges {
		switch a := e.A.(type) {
		case lang.Alloc:
			lm[a.V] = true
			hm[a.H] = true
		case lang.Move:
			lm[a.Dst] = true
			lm[a.Src] = true
		case lang.MoveNull:
			lm[a.V] = true
		case lang.GlobalWrite:
			lm[a.V] = true
		case lang.GlobalRead:
			lm[a.V] = true
		case lang.Load:
			lm[a.Dst] = true
			lm[a.Src] = true
			fm[a.F] = true
		case lang.Store:
			lm[a.Dst] = true
			lm[a.Src] = true
			fm[a.F] = true
		case lang.Invoke:
			lm[a.V] = true
		}
	}
	return sortedKeys(lm), sortedKeys(fm), sortedKeys(hm)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// slots is the environment width.
func (a *Analysis) slots() int { return a.Locals.Len() + a.Fields.Len() }

// localSlot and fieldSlot map names to environment slots.
func (a *Analysis) localSlot(v string) int { return a.Locals.ID(v) }
func (a *Analysis) fieldSlot(f string) int { return a.Locals.Len() + a.Fields.ID(f) }

// internEnv canonicalizes an environment payload. The payload is not
// retained (intern.Strings.IDBytes copies on miss), so callers may hand in
// reusable scratch buffers.
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

// Initial returns the state mapping every local and field to N.
func (a *Analysis) Initial() State {
	return a.internEnv(make([]byte, a.slots()))
}

// StateOf builds a state from explicit local and field bindings; unnamed
// slots are N. It is intended for tests.
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
// {L, E, N} to every local and field. Exponential (3^slots); for exhaustive
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

// AllAbstractions enumerates the abstraction family 2^H. Exponential; for
// tests on small universes.
func (a *Analysis) AllAbstractions() []uset.Set {
	nh := a.Sites.Len()
	out := make([]uset.Set, 0, 1<<nh)
	for bits := 0; bits < 1<<nh; bits++ {
		var p uset.Set
		for h := 0; h < nh; h++ {
			if bits&(1<<h) != 0 {
				p = p.Add(h)
			}
		}
		out = append(out, p)
	}
	return out
}

// esc applies the escape collapse of Fig 5: locals keep N or become E;
// fields reset to N (no L objects remain).
func (a *Analysis) esc(d State) State {
	cur := a.env(d)
	var arr [512]byte
	buf := editBuf(arr[:], cur)
	for i := 0; i < a.Locals.Len(); i++ {
		if Value(buf[i]) != N {
			buf[i] = byte(E)
		}
	}
	for i := a.Locals.Len(); i < len(buf); i++ {
		buf[i] = byte(N)
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

// Step is the transfer function [a]p of Fig 5, reading the abstraction p
// (the set of site indices mapped to L) through the reader. It reads p in
// exactly one place — Alloc reads its site to pick L or E for the fresh
// object; every other atom is a pure function of the abstract state.
func (a *Analysis) Step(p *dataflow.Params, at lang.Atom, d State) State {
	switch at := at.(type) {
	case lang.Alloc:
		val := E
		if p.Has(a.Sites.ID(at.H)) {
			val = L
		}
		return a.set(d, a.localSlot(at.V), val)
	case lang.Move:
		return a.set(d, a.localSlot(at.Dst), a.Local(d, at.Src))
	case lang.MoveNull:
		return a.set(d, a.localSlot(at.V), N)
	case lang.GlobalWrite:
		if a.Local(d, at.V) == L {
			return a.esc(d)
		}
		return d
	case lang.GlobalRead:
		return a.set(d, a.localSlot(at.V), E)
	case lang.Load:
		if a.Local(d, at.Src) == L {
			return a.set(d, a.localSlot(at.Dst), a.Field(d, at.F))
		}
		return a.set(d, a.localSlot(at.Dst), E)
	case lang.Store:
		v := a.Local(d, at.Dst)
		w := a.Local(d, at.Src)
		switch v {
		case N:
			return d
		case E:
			if w == L {
				return a.esc(d)
			}
			return d
		case L:
			if w == N {
				return d
			}
			fv := a.Field(d, at.F)
			switch {
			case fv == w:
				return d
			case fv == N:
				return a.set(d, a.fieldSlot(at.F), w)
			default: // {fv, w} = {L, E}
				return a.esc(d)
			}
		}
		return d
	case lang.Invoke:
		return d // interprocedural effects are spliced in by the RHS solver
	}
	return d
}

// Query asks whether local V is thread-local (never E) at a program point —
// the local(v) query of Fig 6 and of the datarace client in §6. A source
// point may correspond to several CFG nodes after inlining.
type Query struct {
	Nodes []int
	V     string
}

// Holds reports whether a single abstract state satisfies the query.
func (a *Analysis) Holds(q Query, d State) bool { return a.Local(d, q.V) != E }
