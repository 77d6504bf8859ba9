package escape

import (
	"fmt"

	"tracer/internal/formula"
	"tracer/internal/lang"
)

// The primitive formulas of the thread-escape meta-analysis (§4.1):
//
//	h.o — the abstraction maps site h to o (o ∈ {L, E})
//	v.o — the abstract state binds local v to o (o ∈ {L, E, N})
//	f.o — the abstract state binds field f to o
//
// All negations expand positively (¬v.L ≡ v.E ∨ v.N, ¬h.L ≡ h.E), so DNF
// formulas contain only positive literals.

// PSite is the primitive h.o; O must be L or E.
type PSite struct {
	H string
	O Value
}

// PLocal is the primitive v.o.
type PLocal struct {
	V string
	O Value
}

// PField is the primitive f.o.
type PField struct {
	F string
	O Value
}

func (p PSite) Key() string     { return "h:" + p.H + ":" + p.O.String() }
func (p PLocal) Key() string    { return "v:" + p.V + ":" + p.O.String() }
func (p PField) Key() string    { return "f:" + p.F + ":" + p.O.String() }
func (p PSite) String() string  { return p.H + "." + p.O.String() }
func (p PLocal) String() string { return p.V + "." + p.O.String() }
func (p PField) String() string { return p.F + "." + p.O.String() }

// Theory is the literal theory of the thread-escape meta-analysis.
type Theory struct{}

// NegLit expands ¬(x.o) into the disjunction of the other values of the
// same subject; sites range over {L, E}, locals and fields over {L, E, N}.
func (Theory) NegLit(l formula.Lit) ([]formula.Lit, bool) {
	switch p := l.P.(type) {
	case PSite:
		other := L
		if p.O == L {
			other = E
		}
		return []formula.Lit{{P: PSite{p.H, other}}}, true
	case PLocal:
		var out []formula.Lit
		for _, o := range Values {
			if o != p.O {
				out = append(out, formula.Lit{P: PLocal{p.V, o}})
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
	}
	return nil, false
}

// Implies: only identical positive literals entail each other (the fast,
// highly incomplete checker the paper describes for this analysis).
func (Theory) Implies(a, b formula.Lit) bool { return a == b }

// Contradicts: two positive literals about the same subject (site, local,
// or field) with different values are mutually exclusive. The comparison is
// allocation-free — unsat pruning calls this on every literal pair of every
// candidate disjunct, making it the meta-analysis's hottest path.
func (Theory) Contradicts(a, b formula.Lit) bool {
	if a.Neg || b.Neg {
		return false
	}
	switch pa := a.P.(type) {
	case PSite:
		pb, ok := b.P.(PSite)
		return ok && pa.H == pb.H && pa.O != pb.O
	case PLocal:
		pb, ok := b.P.(PLocal)
		return ok && pa.V == pb.V && pa.O != pb.O
	case PField:
		pb, ok := b.P.(PField)
		return ok && pa.F == pb.F && pa.O != pb.O
	}
	return false
}

// EvalLit evaluates a state literal at state d; a site literal h.o
// evaluates through ParamLit.
func (a *Analysis) EvalLit(l formula.Lit, d State) bool {
	v := a.evalPrim(l.P, d)
	if l.Neg {
		return !v
	}
	return v
}

func (a *Analysis) evalPrim(pr formula.Prim, d State) bool {
	switch pr := pr.(type) {
	case PLocal:
		return a.Local(d, pr.V) == pr.O
	case PField:
		return a.Field(d, pr.F) == pr.O
	}
	panic(fmt.Sprintf("escape: unknown primitive %T", pr))
}

// Literal constructors.
func lv(v string, o Value) formula.Formula { return formula.L(PLocal{v, o}) }
func lf(f string, o Value) formula.Formula { return formula.L(PField{f, o}) }
func lh(h string, o Value) formula.Formula { return formula.L(PSite{h, o}) }

// escWP is the weakest precondition of a primitive across the esc collapse:
// locals keep N or become E; fields become N.
func escWP(pr formula.Prim) formula.Formula {
	switch pr := pr.(type) {
	case PLocal:
		switch pr.O {
		case N:
			return lv(pr.V, N)
		case E:
			return formula.Or(lv(pr.V, L), lv(pr.V, E))
		case L:
			return formula.False()
		}
	case PField:
		if pr.O == N {
			return formula.True()
		}
		return formula.False()
	case PSite:
		return formula.L(pr)
	}
	panic("escape: bad primitive")
}

// WP returns the weakest precondition [at]♭(π) of a positive primitive π
// (Fig 11, derived per primitive; soundness is verified exhaustively in the
// tests against the forward transfer functions).
func (a *Analysis) WP(at lang.Atom, prim formula.Prim) formula.Formula {
	if _, ok := prim.(PSite); ok {
		return formula.L(prim) // the abstraction never changes
	}
	switch at := at.(type) {
	case lang.Alloc:
		if pl, ok := prim.(PLocal); ok && pl.V == at.V {
			if pl.O == N {
				return formula.False()
			}
			return lh(at.H, pl.O)
		}
		return formula.L(prim)
	case lang.Move:
		if pl, ok := prim.(PLocal); ok && pl.V == at.Dst {
			return lv(at.Src, pl.O)
		}
		return formula.L(prim)
	case lang.MoveNull:
		if pl, ok := prim.(PLocal); ok && pl.V == at.V {
			if pl.O == N {
				return formula.True()
			}
			return formula.False()
		}
		return formula.L(prim)
	case lang.GlobalRead:
		if pl, ok := prim.(PLocal); ok && pl.V == at.V {
			if pl.O == E {
				return formula.True()
			}
			return formula.False()
		}
		return formula.L(prim)
	case lang.Load:
		pl, ok := prim.(PLocal)
		if !ok || pl.V != at.Dst {
			return formula.L(prim)
		}
		switch pl.O {
		case L:
			return formula.And(lv(at.Src, L), lf(at.F, L))
		case N:
			return formula.And(lv(at.Src, L), lf(at.F, N))
		case E:
			return formula.Or(
				formula.And(lv(at.Src, L), lf(at.F, E)),
				lv(at.Src, E), lv(at.Src, N))
		}
	case lang.GlobalWrite:
		v := at.V
		switch pr := prim.(type) {
		case PLocal:
			switch pr.O {
			case N:
				return lv(pr.V, N)
			case E:
				return formula.Or(lv(pr.V, E), formula.And(lv(pr.V, L), lv(v, L)))
			case L:
				return formula.And(lv(pr.V, L), formula.Or(lv(v, E), lv(v, N)))
			}
		case PField:
			switch pr.O {
			case N:
				return formula.Or(lf(pr.F, N), lv(v, L))
			default:
				return formula.And(lf(pr.F, pr.O), formula.Or(lv(v, E), lv(v, N)))
			}
		}
	case lang.Store:
		return a.wpStore(at, prim)
	case lang.Invoke:
		return formula.L(prim)
	}
	return formula.L(prim)
}

// wpStore handles v.f = w, the richest rule of Fig 11. The forward transfer
// has three behaviours, whose guard formulas over the pre-state are:
//
//	ID  — no change
//	UPD — field f updated to the value of w (requires f = N beforehand)
//	ESC — the esc collapse (mixing L and E)
//
// The guards are mutually exclusive and total.
func (a *Analysis) wpStore(at lang.Store, prim formula.Prim) formula.Formula {
	v, w, f := at.Dst, at.Src, at.F
	id := formula.Or(
		lv(v, N),
		formula.And(lv(v, E), formula.Or(lv(w, E), lv(w, N))),
		formula.And(lv(v, L), formula.Or(
			lv(w, N),
			formula.And(lf(f, L), lv(w, L)),
			formula.And(lf(f, E), lv(w, E)))),
	)
	upd := func(o Value) formula.Formula {
		return formula.And(lv(v, L), lf(f, N), lv(w, o))
	}
	updAny := formula.And(lv(v, L), lf(f, N), formula.Or(lv(w, L), lv(w, E)))
	esc := formula.Or(
		formula.And(lv(v, E), lv(w, L)),
		formula.And(lv(v, L), formula.Or(
			formula.And(lf(f, L), lv(w, E)),
			formula.And(lf(f, E), lv(w, L)))),
	)
	switch pr := prim.(type) {
	case PLocal:
		switch pr.O {
		case N:
			return lv(pr.V, N) // locals with N are preserved by all branches
		case E:
			return formula.Or(lv(pr.V, E), formula.And(lv(pr.V, L), esc))
		case L:
			return formula.And(lv(pr.V, L), formula.Or(id, updAny))
		}
	case PField:
		if pr.F == f {
			switch pr.O {
			case L:
				return formula.Or(formula.And(id, lf(f, L)), upd(L))
			case E:
				return formula.Or(formula.And(id, lf(f, E)), upd(E))
			case N:
				return formula.Or(formula.And(id, lf(f, N)), esc)
			}
		}
		switch pr.O {
		case N:
			return formula.Or(lf(pr.F, N), esc)
		default:
			return formula.And(lf(pr.F, pr.O), formula.Or(id, updAny))
		}
	}
	panic(fmt.Sprintf("escape: unknown primitive %T", prim))
}

// NotQ returns the failure condition not(local(v)) = v.E.
func (a *Analysis) NotQ(q Query) formula.Formula { return lv(q.V, E) }
