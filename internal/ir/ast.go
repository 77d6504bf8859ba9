// Package ir defines a small Java-like intermediate representation: classes
// with single inheritance, virtual methods, instance fields, allocation
// sites, globals (statics), and nondeterministic control flow. It stands in
// for the Java bytecode the paper analyzes through Chord: the two client
// analyses observe exactly the heap-manipulating commands of Figs 4–5, all
// of which this IR produces.
//
// The package contains a lexer and recursive-descent parser for a textual
// form, a semantic checker, and a lowering pass (lower.go) that expands a
// whole program into the structured language of §3.1 by context-sensitive
// inlining, with virtual calls resolved by the 0-CFA points-to analysis.
package ir

import "fmt"

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Program is a parsed IR compilation unit.
type Program struct {
	Globals []string
	Classes []*Class

	classByName map[string]*Class
}

// Class declares fields and methods, optionally extending a superclass.
type Class struct {
	Name    string
	Super   string
	Fields  []string
	Methods []*Method
	Pos     Pos

	super        *Class
	methodByName map[string]*Method
}

// Method is a possibly-native method. The receiver is the implicit first
// parameter "this". Native methods have no body; calls to them only drive
// the type-state automaton.
type Method struct {
	Class  *Class
	Name   string
	Params []string // excluding the implicit receiver
	Locals []string // var declarations
	Body   []Stmt
	Native bool
	Pos    Pos
}

// QualName is the globally unique method name Class.method.
func (m *Method) QualName() string { return m.Class.Name + "." + m.Name }

// Qualify returns the qualified name of local v in method m
// ("Class.method::v"). The lowered atoms name every local this way, so the
// type-state abstraction family ranges over method-locals as in the paper.
func Qualify(m *Method, v string) string { return m.QualName() + "::" + v }

// Stmt is an IR statement.
type Stmt interface {
	stmt()
	Position() Pos
}

type stmtBase struct{ Pos Pos }

func (s stmtBase) Position() Pos { return s.Pos }
func (stmtBase) stmt()           {}

// NewStmt is "v = new C @ h".
type NewStmt struct {
	stmtBase
	Dst, Class, Site string
}

// MoveStmt is "v = w" between locals.
type MoveStmt struct {
	stmtBase
	Dst, Src string
}

// NullStmt is "v = null".
type NullStmt struct {
	stmtBase
	Dst string
}

// GlobalGet is "v = g" for a declared global g.
type GlobalGet struct {
	stmtBase
	Dst, Global string
}

// GlobalPut is "g = v".
type GlobalPut struct {
	stmtBase
	Global, Src string
}

// LoadStmt is "v = w.f".
type LoadStmt struct {
	stmtBase
	Dst, Src, Field string
}

// StoreStmt is "v.f = w".
type StoreStmt struct {
	stmtBase
	Dst, Field, Src string
}

// CallStmt is "[v =] w.m(a1, ..., an)": a virtual call dispatched on the
// classes w may point to. Dst is empty when the result is discarded.
type CallStmt struct {
	stmtBase
	Dst, Recv, Method string
	Args              []string
}

// IfStmt is "if * { ... } [else { ... }]": nondeterministic branching.
type IfStmt struct {
	stmtBase
	Then, Else []Stmt
}

// LoopStmt is "loop { ... }": nondeterministic iteration (s*).
type LoopStmt struct {
	stmtBase
	Body []Stmt
}

// ReturnStmt is "return [v]"; only valid as the last statement of a body.
type ReturnStmt struct {
	stmtBase
	Src string // empty for bare return
}

// QueryKind distinguishes explicit query statements.
type QueryKind int

const (
	// QueryLocal asks whether a variable is thread-local (escape client).
	QueryLocal QueryKind = iota
	// QueryTypestate asks whether the tracked object's type-state is
	// within the listed automaton states (type-state client).
	QueryTypestate
)

// QueryStmt is "query name local(v)" or "query name state(v, s1 s2 ...)":
// an explicit query point used by the examples; the benchmark harness also
// generates queries pervasively per §6.
type QueryStmt struct {
	stmtBase
	Name   string
	Kind   QueryKind
	Var    string
	States []string
}

// ClassByName resolves a class, or nil.
func (p *Program) ClassByName(name string) *Class { return p.classByName[name] }

// LookupMethod resolves method name on class c following the superclass
// chain, mirroring virtual dispatch.
func (c *Class) LookupMethod(name string) *Method {
	for cur := c; cur != nil; cur = cur.super {
		if m, ok := cur.methodByName[name]; ok {
			return m
		}
	}
	return nil
}

// Superclass returns the resolved superclass, or nil.
func (c *Class) Superclass() *Class { return c.super }

// Main returns the entry method Main.main, which every analyzable program
// must declare.
func (p *Program) Main() *Method {
	c := p.ClassByName("Main")
	if c == nil {
		return nil
	}
	return c.LookupMethod("main")
}

// Methods iterates all methods of all classes in declaration order.
func (p *Program) Methods() []*Method {
	var out []*Method
	for _, c := range p.Classes {
		out = append(out, c.Methods...)
	}
	return out
}
