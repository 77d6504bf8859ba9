package formula_test

// Microbenchmarks of the interned DNF kernel's hot paths on formulas sized
// like the Fig 12 evaluation programs (a thread-escape universe with several
// locals, fields, and allocation sites; the store weakest precondition is
// the largest formula either theory produces). Run with -benchmem: the
// allocs/op column is the regression gate for the "no string keys on hot
// paths" property — see `make bench-micro`.

import (
	"testing"

	"tracer/internal/client"
	"tracer/internal/dataflow"
	"tracer/internal/escape"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
)

// benchAnalysis builds a fig12-sized thread-escape universe.
func benchAnalysis() *escape.Analysis {
	locals := []string{"u", "v", "w", "x", "y", "z"}
	fields := []string{"f", "g"}
	sites := []string{"h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8"}
	return escape.New(locals, fields, sites)
}

// benchWPFormula returns the store weakest precondition — the largest
// formula in either theory — over the bench universe.
func benchWPFormula(a *escape.Analysis) formula.Formula {
	st := lang.Store{Dst: "u", F: "f", Src: "v"}
	return a.WP(st, escape.PField{F: "f", O: escape.N})
}

// benchTrace is a counterexample-shaped trace mixing allocations, moves,
// stores, and loads, so the backward walk exercises every WP shape.
func benchTrace() lang.Trace {
	return lang.Trace{
		lang.Alloc{V: "u", H: "h1"},
		lang.Alloc{V: "v", H: "h2"},
		lang.Move{Dst: "w", Src: "u"},
		lang.Store{Dst: "v", F: "f", Src: "u"},
		lang.GlobalWrite{G: "G", V: "w"},
		lang.Load{Dst: "x", Src: "v", F: "f"},
		lang.Alloc{V: "y", H: "h3"},
		lang.Move{Dst: "z", Src: "x"},
		lang.Store{Dst: "y", F: "g", Src: "z"},
		lang.Load{Dst: "u", Src: "y", F: "g"},
	}
}

func BenchmarkApprox(b *testing.B) {
	a := benchAnalysis()
	u := formula.NewUniverse(escape.Theory{})
	f := benchWPFormula(a)
	dI := a.Initial()
	holds := func(c formula.Conj) bool {
		return c.Eval(func(l formula.Lit) bool { return client.EvalLit(a, l, nil, dI) })
	}
	formula.Approx(f, u, 5, holds) // warm the universe and theory memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		formula.Approx(f, u, 5, holds)
	}
}

func BenchmarkSimplify(b *testing.B) {
	a := benchAnalysis()
	u := formula.NewUniverse(escape.Theory{})
	d := formula.ToDNF(benchWPFormula(a), u)
	d.Simplify() // warm the theory memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Simplify()
	}
}

func BenchmarkWpDNF(b *testing.B)     { benchWpDNF(b, false) }
func BenchmarkWpDNFCold(b *testing.B) { benchWpDNF(b, true) }

// benchWpDNF times backward walks over benchTrace. Warm walks share one WP
// cache filled before timing. Cold walks get a fresh cache each, so every
// (atom, literal) entry and formula memo row is filled inside the timed
// loop: they measure what a cold fill costs and retains. The universe stays
// warm either way, as it is once a program's first query of a client has
// run.
func benchWpDNF(b *testing.B, cold bool) {
	a := benchAnalysis()
	u := formula.NewUniverse(escape.Theory{})
	cache := meta.NewWPCache()
	tr := benchTrace()
	dI := a.Initial()
	states := dataflow.StatesAlong(tr, dI, dataflow.At(a.Step, nil))
	post := a.NotQ(escape.Query{V: "u"})
	client := func() *meta.Client[escape.State] {
		c := cache
		if cold {
			c = meta.NewWPCache()
		}
		return &meta.Client[escape.State]{
			WP:    a.WP,
			U:     u,
			Eval:  func(l formula.Lit, d escape.State) bool { return client.EvalLit(a, l, nil, d) },
			K:     5,
			Cache: c,
		}
	}
	meta.Run(client(), tr, states, post) // warm the universe, theory memos and shared cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta.Run(client(), tr, states, post)
	}
}
