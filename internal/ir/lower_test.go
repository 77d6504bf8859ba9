// The lowering of IR statements to atoms, seen through the CFG the inline
// engine runs on: rhs.FromIR lowers each method onto the supergraph, and
// Inline expands that from Main.main.
package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/rhs"
)

// staticResolver resolves calls by method name over all classes and deems
// every method reachable — a hand-written stand-in for the 0-CFA call graph
// in these tests.
type staticResolver struct{ prog *ir.Program }

func (r staticResolver) Targets(s *ir.CallStmt) []*ir.Method {
	var out []*ir.Method
	for _, c := range r.prog.Classes {
		for _, m := range c.Methods {
			if m.Name == s.Method {
				out = append(out, m)
			}
		}
	}
	return out
}

func (staticResolver) Reachable(*ir.Method) bool { return true }

// lower inlines prog over the static call graph.
func lower(prog *ir.Program) (*rhs.Program, *rhs.Inlined, error) {
	sp, err := rhs.FromIR(prog, staticResolver{prog})
	if err != nil {
		return nil, nil, err
	}
	low, err := sp.Inline()
	return sp, low, err
}

func lowerSrc(t *testing.T, src string) (*rhs.Program, *rhs.Inlined) {
	t.Helper()
	sp, low, err := lower(ir.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return sp, low
}

func TestLowerStraightLine(t *testing.T) {
	_, low := lowerSrc(t, `
class Main {
  method main(this) {
    var a, b
    a = new Main @ h1
    b = a
    b = null
  }
}
`)
	var kinds []string
	for _, e := range low.G.Edges {
		if e.A != nil {
			kinds = append(kinds, e.A.String())
		}
	}
	joined := strings.Join(kinds, "; ")
	for _, want := range []string{
		"Main.main::a = null", // frame initialization
		"Main.main::a = new h1",
		"Main.main::b = Main.main::a",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("lowered atoms %q missing %q", joined, want)
		}
	}
}

func TestLowerCallInlines(t *testing.T) {
	_, low := lowerSrc(t, `
class Helper {
  method work(this, x) {
    var y
    y = x
    return y
  }
}
class Main {
  method main(this) {
    var a, r, h
    a = new Main @ h1
    h = new Helper @ h2
    r = h.work(a)
  }
}
`)
	var atoms []string
	for _, e := range low.G.Edges {
		if e.A != nil {
			atoms = append(atoms, e.A.String())
		}
	}
	joined := strings.Join(atoms, "; ")
	for _, want := range []string{
		"Main.main::h.work()",              // the type-state event
		"Helper.work::this = Main.main::h", // receiver binding
		"Helper.work::x = Main.main::a",    // argument binding
		"Helper.work::y = Helper.work::x",  // inlined body
		"Main.main::r = Helper.work::y",    // return value
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("lowered atoms missing %q in:\n%s", want, joined)
		}
	}
	if len(low.Calls) != 1 {
		t.Fatalf("call sites = %d", len(low.Calls))
	}
}

func TestLowerVirtualChoice(t *testing.T) {
	_, low := lowerSrc(t, `
class A { method m(this) { var x
  x = new A @ hA } }
class B { method m(this) { var x
  x = new B @ hB } }
class Main {
  method main(this) {
    var o
    o = new A @ h1
    o.m()
  }
}
`)
	// Both targets' alloc sites must appear (nondeterministic choice).
	var sites []string
	for _, e := range low.G.Edges {
		if a, ok := e.A.(lang.Alloc); ok {
			sites = append(sites, a.H)
		}
	}
	joined := strings.Join(sites, ",")
	if !strings.Contains(joined, "hA") || !strings.Contains(joined, "hB") {
		t.Fatalf("virtual call did not inline both targets: %s", joined)
	}
}

func TestLowerRejectsRecursion(t *testing.T) {
	prog := ir.MustParse(`
class Main {
  method main(this) {
    this.main()
  }
}
`)
	_, _, err := lower(prog)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("err = %v, want recursion error", err)
	}
}

// TestLowerDepthLimit: a call chain may nest rhs.MaxInlineDepth methods,
// Main.main included, and no more.
func TestLowerDepthLimit(t *testing.T) {
	chain := func(n int) *ir.Program { // Main.main calls m0, which calls m1, ... m(n-1)
		src := "class Main {\n  method main(this) {\n    this.m0()\n  }\n"
		for i := 0; i < n; i++ {
			src += fmt.Sprintf("  method m%d(this) {\n    this.m%d()\n  }\n", i, i+1)
		}
		return ir.MustParse(src + fmt.Sprintf("  method m%d(this) { }\n}\n", n))
	}
	if _, _, err := lower(chain(rhs.MaxInlineDepth - 1)); err == nil ||
		!strings.Contains(err.Error(), "depth limit") {
		t.Fatalf("expected depth-limit error, got %v", err)
	}
	if _, _, err := lower(chain(rhs.MaxInlineDepth - 2)); err != nil {
		t.Fatalf("a chain of %d methods should inline: %v", rhs.MaxInlineDepth, err)
	}
}

func TestLowerQueriesAndAccesses(t *testing.T) {
	sp, low := lowerSrc(t, `
class Main {
  field f
  method main(this) {
    var a, b
    a = new Main @ h1
    a.f = a
    b = a.f
    query q local(a)
  }
}
`)
	if len(low.Accesses) != 2 {
		t.Fatalf("accesses = %d, want 2", len(low.Accesses))
	}
	if len(low.Queries) != 1 || sp.Queries[low.Queries[0].Rec].Var != "Main.main::a" {
		t.Fatalf("queries = %+v", low.Queries)
	}
	if low.Atoms == 0 || low.AtomsByMethod[sp.IR.Main()] != low.Atoms {
		t.Fatalf("atom attribution wrong: %d vs %v", low.Atoms, low.AtomsByMethod)
	}
}

func TestLowerNativeCallOnly(t *testing.T) {
	_, low := lowerSrc(t, `
class Main {
  native method ping(this)
  method main(this) {
    var a, r
    a = new Main @ h1
    a.ping()
    r = a.ping()
  }
}
`)
	// Native targets have no body: the call is just the Invoke event, and a
	// call with a destination nulls it.
	var invokes, nulls int
	for _, e := range low.G.Edges {
		switch e.A.(type) {
		case lang.Invoke:
			invokes++
		case lang.MoveNull:
			nulls++
		}
	}
	if invokes != 2 {
		t.Fatalf("invokes = %d, want 2", invokes)
	}
	// Frame init nulls (a, r) + result null for r.
	if nulls != 3 {
		t.Fatalf("nulls = %d, want 3", nulls)
	}
}
