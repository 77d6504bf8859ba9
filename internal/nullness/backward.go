package nullness

import (
	"fmt"

	"tracer/internal/formula"
	"tracer/internal/lang"
)

// The primitive formulas of the nullness meta-analysis:
//
//	track(v), coarse(v) — the abstraction does / does not track local v
//	track(.f), coarse(.f) — likewise for field cell f
//	v.o — the abstract state binds local v to o (o ∈ {U, NIL, NN})
//	f.o — the abstract state binds field cell f to o
//
// All negations expand positively (¬v.NN ≡ v.U ∨ v.NIL, ¬track(v) ≡
// coarse(v)), so DNF formulas contain only positive literals.

// PVar is the primitive v.o.
type PVar struct {
	V string
	O Value
}

// PField is the primitive f.o.
type PField struct {
	F string
	O Value
}

// PTrackVar is the parameter primitive track(v) (On) or coarse(v) (!On).
type PTrackVar struct {
	V  string
	On bool
}

// PTrackField is the parameter primitive track(.f) (On) or coarse(.f).
type PTrackField struct {
	F  string
	On bool
}

func (p PVar) Key() string   { return "v:" + p.V + ":" + p.O.String() }
func (p PField) Key() string { return "f:" + p.F + ":" + p.O.String() }
func (p PTrackVar) Key() string {
	if p.On {
		return "tv:" + p.V + ":1"
	}
	return "tv:" + p.V + ":0"
}
func (p PTrackField) Key() string {
	if p.On {
		return "tf:" + p.F + ":1"
	}
	return "tf:" + p.F + ":0"
}
func (p PVar) String() string   { return p.V + "." + p.O.String() }
func (p PField) String() string { return p.F + "." + p.O.String() }
func (p PTrackVar) String() string {
	if p.On {
		return "track(" + p.V + ")"
	}
	return "coarse(" + p.V + ")"
}
func (p PTrackField) String() string {
	if p.On {
		return "track(." + p.F + ")"
	}
	return "coarse(." + p.F + ")"
}

// Theory is the literal theory of the nullness meta-analysis.
type Theory struct{}

// NegLit expands ¬(x.o) into the disjunction of the other values of the
// same subject; track primitives flip polarity.
func (Theory) NegLit(l formula.Lit) ([]formula.Lit, bool) {
	switch p := l.P.(type) {
	case PVar:
		var out []formula.Lit
		for _, o := range Values {
			if o != p.O {
				out = append(out, formula.Lit{P: PVar{p.V, o}})
			}
		}
		return out, true
	case PField:
		var out []formula.Lit
		for _, o := range Values {
			if o != p.O {
				out = append(out, formula.Lit{P: PField{p.F, o}})
			}
		}
		return out, true
	case PTrackVar:
		return []formula.Lit{{P: PTrackVar{p.V, !p.On}}}, true
	case PTrackField:
		return []formula.Lit{{P: PTrackField{p.F, !p.On}}}, true
	}
	return nil, false
}

// Implies: only identical positive literals entail each other.
func (Theory) Implies(a, b formula.Lit) bool { return a == b }

// Contradicts: two positive literals about the same subject with
// different values (or opposite track polarity) are mutually exclusive.
// Allocation-free — unsat pruning calls this on every literal pair of
// every candidate disjunct.
func (Theory) Contradicts(a, b formula.Lit) bool {
	if a.Neg || b.Neg {
		return false
	}
	switch pa := a.P.(type) {
	case PVar:
		pb, ok := b.P.(PVar)
		return ok && pa.V == pb.V && pa.O != pb.O
	case PField:
		pb, ok := b.P.(PField)
		return ok && pa.F == pb.F && pa.O != pb.O
	case PTrackVar:
		pb, ok := b.P.(PTrackVar)
		return ok && pa.V == pb.V && pa.On != pb.On
	case PTrackField:
		pb, ok := b.P.(PTrackField)
		return ok && pa.F == pb.F && pa.On != pb.On
	}
	return false
}

// EvalLit evaluates a state literal at state d; track literals evaluate
// through ParamLit.
func (a *Analysis) EvalLit(l formula.Lit, d State) bool {
	v := a.evalPrim(l.P, d)
	if l.Neg {
		return !v
	}
	return v
}

func (a *Analysis) evalPrim(pr formula.Prim, d State) bool {
	switch pr := pr.(type) {
	case PVar:
		return a.Local(d, pr.V) == pr.O
	case PField:
		return a.Field(d, pr.F) == pr.O
	}
	panic(fmt.Sprintf("nullness: unknown primitive %T", pr))
}

// Literal constructors.
func lv(v string, o Value) formula.Formula { return formula.L(PVar{v, o}) }
func lf(f string, o Value) formula.Formula { return formula.L(PField{f, o}) }
func tv(v string, on bool) formula.Formula { return formula.L(PTrackVar{v, on}) }
func tf(f string, on bool) formula.Formula { return formula.L(PTrackField{f, on}) }

// wpAssign is the weakest precondition of a local primitive v.o across
// assign(v, val) where val is given as a formula over the pre-state:
// the tracked cell receives val, the untracked cell receives U.
func wpAssign(v string, o Value, val func(Value) formula.Formula) formula.Formula {
	if o == U {
		return formula.Or(tv(v, false), val(U))
	}
	return formula.And(tv(v, true), val(o))
}

// WP returns the weakest precondition [at]♭(π) of a positive primitive π,
// derived per primitive from the forward transfer; exactness is verified
// exhaustively in the tests against step.
func (a *Analysis) WP(at lang.Atom, prim formula.Prim) formula.Formula {
	switch prim.(type) {
	case PTrackVar, PTrackField:
		return formula.L(prim) // the abstraction never changes
	}
	switch at := at.(type) {
	case lang.Alloc:
		if pl, ok := prim.(PVar); ok && pl.V == at.V {
			return wpAssign(at.V, pl.O, func(o Value) formula.Formula {
				if o == NN {
					return formula.True()
				}
				return formula.False()
			})
		}
		if pf, ok := prim.(PField); ok {
			// Every field summary absorbs the fresh object's null field.
			switch pf.O {
			case U:
				return formula.Or(lf(pf.F, U), lf(pf.F, NN))
			case NN:
				return formula.False()
			case Nil:
				return lf(pf.F, Nil)
			}
		}
		return formula.L(prim)
	case lang.Move:
		if pl, ok := prim.(PVar); ok && pl.V == at.Dst {
			return wpAssign(at.Dst, pl.O, func(o Value) formula.Formula {
				return lv(at.Src, o)
			})
		}
		return formula.L(prim)
	case lang.MoveNull:
		if pl, ok := prim.(PVar); ok && pl.V == at.V {
			return wpAssign(at.V, pl.O, func(o Value) formula.Formula {
				if o == Nil {
					return formula.True()
				}
				return formula.False()
			})
		}
		return formula.L(prim)
	case lang.GlobalRead:
		if pl, ok := prim.(PVar); ok && pl.V == at.V {
			if pl.O == U {
				return formula.True()
			}
			return formula.False()
		}
		return formula.L(prim)
	case lang.GlobalWrite:
		return formula.L(prim)
	case lang.Load:
		if pl, ok := prim.(PVar); ok && pl.V == at.Dst {
			return wpAssign(at.Dst, pl.O, func(o Value) formula.Formula {
				return lf(at.F, o)
			})
		}
		return formula.L(prim)
	case lang.Store:
		pf, ok := prim.(PField)
		if !ok || pf.F != at.F {
			return formula.L(prim)
		}
		f, w := at.F, at.Src
		switch pf.O {
		case NN:
			return formula.And(tf(f, true), lf(f, NN), lv(w, NN))
		case Nil:
			return formula.And(tf(f, true), lf(f, Nil), lv(w, Nil))
		case U:
			return formula.Or(
				tf(f, false),
				lf(f, U),
				lv(w, U),
				formula.And(lf(f, NN), lv(w, Nil)),
				formula.And(lf(f, Nil), lv(w, NN)))
		}
	case lang.Invoke:
		if pl, ok := prim.(PVar); ok && pl.V == at.V {
			return wpAssign(at.V, pl.O, func(o Value) formula.Formula {
				if o == NN {
					return formula.True()
				}
				return formula.False()
			})
		}
		return formula.L(prim)
	}
	return formula.L(prim)
}

// NotQ returns the failure condition not(nonnil(v)) = v.NIL ∨ v.U.
func (a *Analysis) NotQ(q Query) formula.Formula {
	return formula.Or(lv(q.V, Nil), lv(q.V, U))
}
