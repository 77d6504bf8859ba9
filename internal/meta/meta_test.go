package meta_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tracer/internal/bench"
	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/driver"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/obs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// naiveBackward is a direct transcription of Fig 7 without the identity
// fast path, the WP cache, or DNF-level accumulation: the reference the
// optimized driver is checked against.
func naiveBackward(c *meta.Client[typestate.State], t lang.Trace, states []typestate.State, post formula.Formula) []formula.DNF {
	out := make([]formula.DNF, len(t)+1)
	approx := func(f formula.Formula, d typestate.State) formula.DNF {
		holds := func(conj formula.Conj) bool {
			return conj.Eval(func(l formula.Lit) bool { return c.Eval(l, d) })
		}
		return formula.Approx(f, c.U, c.K, holds)
	}
	cur := approx(post, states[len(t)])
	out[len(t)] = cur
	for i := len(t) - 1; i >= 0; i-- {
		var disjuncts []formula.Formula
		for _, conj := range cur {
			var lits []formula.Formula
			for _, l := range conj.Lits() {
				wp := c.WP(t[i], l.P)
				if l.Neg {
					wp = formula.Not(wp)
				}
				lits = append(lits, wp)
			}
			disjuncts = append(disjuncts, formula.And(lits...))
		}
		cur = approx(formula.Or(disjuncts...), states[i])
		out[i] = cur
	}
	return out
}

func testSetup() (*typestate.Analysis, []lang.Atom) {
	a := typestate.New(typestate.FileProperty(), "h", []string{"x", "y"})
	atoms := []lang.Atom{
		lang.Alloc{V: "x", H: "h"},
		lang.Alloc{V: "y", H: "g"},
		lang.Move{Dst: "y", Src: "x"},
		lang.Move{Dst: "x", Src: "y"},
		lang.MoveNull{V: "y"},
		lang.Invoke{V: "x", M: "open"},
		lang.Invoke{V: "y", M: "close"},
		lang.Store{Dst: "x", F: "f", Src: "y"},
	}
	return a, atoms
}

// TestOptimizedDriverMatchesNaive compares the production driver (with its
// identity fast path and WP caching) against the naive Fig 7 transcription,
// point by point, on random traces, semantically over all (p, d).
func TestOptimizedDriverMatchesNaive(t *testing.T) {
	a, atoms := testSetup()
	rng := rand.New(rand.NewSource(31))
	abstractions := a.AllAbstractions()
	states := a.AllStates()
	post := a.NotQ(typestate.Query{Want: uset.Bits(0).Add(0)})
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		tr := make(lang.Trace, n)
		for i := range tr {
			tr[i] = atoms[rng.Intn(len(atoms))]
		}
		p := abstractions[rng.Intn(len(abstractions))]
		for _, k := range []int{1, 2, 0} {
			mc := &meta.Client[typestate.State]{
				WP:   a.WP,
				U:    formula.NewUniverse(typestate.Theory{}),
				Eval: func(l formula.Lit, d typestate.State) bool { return client.EvalLit(a, l, p, d) },
				K:    k,
			}
			pre := dataflow.StatesAlong(tr, a.Initial(), dataflow.At(a.Step, p))
			got := meta.RunAnnotated(mc, tr, pre, post)
			ref := naiveBackward(mc, tr, pre, post)
			for i := range got {
				for _, p0 := range abstractions {
					for _, d0 := range states {
						ev := func(l formula.Lit) bool { return client.EvalLit(a, l, p0, d0) }
						if got[i].Eval(ev) != ref[i].Eval(ev) {
							t.Fatalf("k=%d trace %q point %d: optimized %s vs naive %s differ at p=%v d=%s",
								k, tr, i, got[i], ref[i], p0, a.Format(d0))
						}
					}
				}
			}
		}
	}
}

// TestRunAnnotatedLengths and the state-length contract.
func TestRunAnnotatedLengths(t *testing.T) {
	a, _ := testSetup()
	mc := &meta.Client[typestate.State]{
		WP:   a.WP,
		U:    formula.NewUniverse(typestate.Theory{}),
		Eval: func(l formula.Lit, d typestate.State) bool { return client.EvalLit(a, l, nil, d) },
		K:    1,
	}
	tr := lang.Trace{lang.MoveNull{V: "x"}}
	states := dataflow.StatesAlong(tr, a.Initial(), dataflow.At(a.Step, nil))
	post := a.NotQ(typestate.Query{Want: uset.Bits(0).Add(0)})
	ann := meta.RunAnnotated(mc, tr, states, post)
	if len(ann) != 2 {
		t.Fatalf("annotations = %d, want 2", len(ann))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched states length")
		}
	}()
	meta.RunAnnotated(mc, tr, states[:1], post)
}

// wideSetup is a type-state analysis over 40 variables and a not(q)-shaped
// post whose DNF has more than 64 distinct literals, with atoms that change
// some of them and leave the rest alone.
func wideSetup() (*typestate.Analysis, formula.Formula, []lang.Atom) {
	vars := make([]string, 40)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
	}
	a := typestate.New(typestate.FileProperty(), "h", vars)
	disjuncts := []formula.Formula{a.NotQ(typestate.Query{Want: uset.Bits(0).Add(0)})}
	for i, v := range vars {
		disjuncts = append(disjuncts, formula.And(
			formula.L(typestate.PVar{X: v}),
			formula.L(typestate.PParam{X: vars[(i+1)%len(vars)]}),
		))
	}
	atoms := []lang.Atom{
		lang.Move{Dst: "v1", Src: "v2"},
		lang.MoveNull{V: "v3"},
		lang.Alloc{V: "v4", H: "h"},
		lang.Invoke{V: "v5", M: "open"},
		lang.Alloc{V: "w", H: "g"}, // untracked: identity on every literal
		lang.Store{Dst: "v6", F: "f", Src: "v7"},
	}
	return a, formula.Or(disjuncts...), atoms
}

// TestRunMatchesAnnotated: Run returns RunAnnotated's formula at the start
// of the trace on the same walk, on a cold and then a warm WP cache: on a
// formula with more than 64 distinct literals, and on a walk whose budget
// trips, where both are nil.
func TestRunMatchesAnnotated(t *testing.T) {
	a, post, atoms := wideSetup()
	rng := rand.New(rand.NewSource(11))
	tr := make(lang.Trace, 24)
	for i := range tr {
		tr[i] = atoms[rng.Intn(len(atoms))]
	}
	p := uset.New(0, 2, 5)
	states := dataflow.StatesAlong(tr, a.Initial(), dataflow.At(a.Step, p))
	u := formula.NewUniverse(typestate.Theory{})
	distinct := map[uint32]bool{}
	for _, conj := range formula.ToDNF(post, u).Simplify() {
		for _, id := range conj.IDs() {
			distinct[id] = true
		}
	}
	if len(distinct) <= 64 {
		t.Fatalf("post has %d distinct literals, want more than 64", len(distinct))
	}
	client := func(k int, cache *meta.WPCache, b *budget.Budget) *meta.Client[typestate.State] {
		return &meta.Client[typestate.State]{
			WP:     a.WP,
			U:      u,
			Eval:   func(l formula.Lit, d typestate.State) bool { return client.EvalLit(a, l, p, d) },
			K:      k,
			Cache:  cache,
			Budget: b,
		}
	}
	for _, k := range []int{0, 20} {
		runCache, annCache := meta.NewWPCache(), meta.NewWPCache()
		var first formula.DNF
		for _, pass := range []string{"cold", "warm"} {
			got := meta.Run(client(k, runCache, nil), tr, states, post)
			ann := meta.RunAnnotated(client(k, annCache, nil), tr, states, post)
			if !got.Equal(ann[0]) {
				t.Fatalf("k=%d %s: Run = %s, RunAnnotated[0] = %s", k, pass, got, ann[0])
			}
			if first == nil {
				first = got
			} else if !got.Equal(first) {
				t.Fatalf("k=%d: warm walk %s, cold walk %s", k, got, first)
			}
		}
		if first.IsFalse() {
			t.Fatalf("k=%d: the walk's condition is false", k)
		}
	}
	for _, pass := range []string{"cold", "warm"} {
		cache := meta.NewWPCache()
		if pass == "warm" {
			meta.Run(client(1, cache, nil), tr, states, post)
		}
		rb, ab := budget.New(nil, time.Time{}, 3), budget.New(nil, time.Time{}, 3)
		got := meta.Run(client(1, cache, rb), tr, states, post)
		ann := meta.RunAnnotated(client(1, cache, ab), tr, states, post)
		if !rb.Tripped() || !ab.Tripped() {
			t.Fatalf("%s: a quota of 3 steps did not trip", pass)
		}
		if got != nil || ann[0] != nil {
			t.Fatalf("%s: tripped walk: Run = %v, RunAnnotated[0] = %v, want both nil", pass, got, ann[0])
		}
		if ann[len(tr)] == nil {
			t.Fatalf("%s: tripped walk lost the post-condition", pass)
		}
	}
}

// TestWalkBudgetSteps pins the budget steps backward walks charge (one per
// atom visited and one per substitution link), at the values of the walk
// that applied wp and approx at every atom: the first walk of each of the
// first 8 queries per client on tsp, and a fixed type-state trace. It also
// checks the walk counters: every visited atom counts on meta.walk_atoms,
// and a strict minority changes the formula.
func TestWalkBudgetSteps(t *testing.T) {
	bm := bench.MustLoad(bench.Suite()[0]) // tsp
	for _, tc := range []struct {
		client       string
		walks, atoms int
		steps        int64
	}{
		{"typestate", 2, 68, 78},
		{"escape", 8, 508, 655},
		{"nullness", 8, 508, 560},
	} {
		spec := driver.ClientByName(tc.client)
		var steps int64
		var walks, atoms int
		agg := obs.NewAgg()
		for i := range min(8, len(spec.Queries(bm.Prog))) {
			job := spec.Job(bm.Prog, i, 5)
			out := job.Forward(nil, nil)
			if out.Proved {
				continue
			}
			b := budget.New(nil, time.Time{}, 0)
			job.Backward(b, nil, out.Trace)
			job.(core.ObsFlusher).FlushObs(agg)
			steps += b.Steps()
			walks++
			atoms += len(out.Trace)
		}
		if walks != tc.walks || atoms != tc.atoms || steps != tc.steps {
			t.Errorf("%s: %d walks over %d atoms charged %d steps, want %d over %d charging %d",
				tc.client, walks, atoms, steps, tc.walks, tc.atoms, tc.steps)
		}
		visited, changed := agg.Counter(obs.MetaWalkAtoms), agg.Counter(obs.MetaWalkChanged)
		if visited != int64(atoms) || changed <= 0 || 2*changed >= visited {
			t.Errorf("%s: meta.walk_atoms %d, meta.walk_changed %d over %d atoms", tc.client, visited, changed, atoms)
		}
	}

	a, atoms := testSetup()
	rng := rand.New(rand.NewSource(5))
	tr := make(lang.Trace, 40)
	for i := range tr {
		tr[i] = atoms[rng.Intn(len(atoms))]
	}
	p := uset.New(0)
	post := a.NotQ(typestate.Query{Want: uset.Bits(0).Add(0)})
	states := dataflow.StatesAlong(tr, a.Initial(), dataflow.At(a.Step, p))
	for _, tc := range []struct {
		k     int
		steps int64
	}{{1, 42}, {2, 46}} {
		b := budget.New(nil, time.Time{}, 0)
		mc := &meta.Client[typestate.State]{
			WP:     a.WP,
			U:      formula.NewUniverse(typestate.Theory{}),
			Eval:   func(l formula.Lit, d typestate.State) bool { return client.EvalLit(a, l, p, d) },
			K:      tc.k,
			Budget: b,
		}
		meta.Run(mc, tr, states, post)
		if b.Steps() != tc.steps {
			t.Errorf("k=%d: fixed trace charged %d steps, want %d", tc.k, b.Steps(), tc.steps)
		}
	}
}

// TestWPCacheShared: results are identical with and without a shared cache.
func TestWPCacheShared(t *testing.T) {
	a, atoms := testSetup()
	cache := meta.NewWPCache()
	u := formula.NewUniverse(typestate.Theory{})
	tr := lang.Trace{atoms[0], atoms[2], atoms[5], atoms[6]}
	post := a.NotQ(typestate.Query{Want: uset.Bits(0).Add(0)})
	states := dataflow.StatesAlong(tr, a.Initial(), dataflow.At(a.Step, nil))
	mk := func(c *meta.WPCache) formula.DNF {
		mc := &meta.Client[typestate.State]{
			WP:    a.WP,
			U:     u,
			Eval:  func(l formula.Lit, d typestate.State) bool { return client.EvalLit(a, l, nil, d) },
			K:     1,
			Cache: c,
		}
		return meta.Run(mc, tr, states, post)
	}
	first := mk(cache)
	second := mk(cache) // warm cache
	fresh := mk(nil)
	if first.String() != second.String() || first.String() != fresh.String() {
		t.Fatalf("cache changed results: %s / %s / %s", first, second, fresh)
	}
}

// TestWPCacheConcurrent drives many goroutines through one shared Universe
// and WPCache — the batch driver's sharing pattern — and requires every
// concurrent run to produce the same canonical DNF as a sequential one.
// Run under -race this pins the concurrency contract of both structures.
func TestWPCacheConcurrent(t *testing.T) {
	a, atoms := testSetup()
	u := formula.NewUniverse(typestate.Theory{})
	cache := meta.NewWPCache()
	post := a.NotQ(typestate.Query{Want: uset.Bits(0).Add(0)})
	traces := make([]lang.Trace, 8)
	rng := rand.New(rand.NewSource(17))
	for i := range traces {
		tr := make(lang.Trace, 3+rng.Intn(5))
		for j := range tr {
			tr[j] = atoms[rng.Intn(len(atoms))]
		}
		traces[i] = tr
	}
	run := func(tr lang.Trace) string {
		mc := &meta.Client[typestate.State]{
			WP:    a.WP,
			U:     u,
			Eval:  func(l formula.Lit, d typestate.State) bool { return client.EvalLit(a, l, nil, d) },
			K:     2,
			Cache: cache,
		}
		states := dataflow.StatesAlong(tr, a.Initial(), dataflow.At(a.Step, nil))
		return meta.Run(mc, tr, states, post).String()
	}
	want := make([]string, len(traces))
	for i, tr := range traces {
		want[i] = run(tr) // sequential reference (also warms the shared state)
	}
	const workers = 8
	errs := make(chan error, workers*len(traces))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tr := range traces {
				if got := run(tr); got != want[i] {
					errs <- fmt.Errorf("trace %d: concurrent %s != sequential %s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFlushUniverseObs: the flush reports every formula.* counter name —
// including the signature-filter pair — and consumes the deltas, so a second
// flush reports zero-valued deltas while the size gauge persists.
func TestFlushUniverseObs(t *testing.T) {
	u := formula.NewUniverse(typestate.Theory{})
	vars := []string{"a", "b", "c", "d"}
	var disjuncts []formula.Formula
	for i, x := range vars {
		c := formula.And(
			formula.L(typestate.PVar{X: x}),
			formula.L(typestate.PParam{X: vars[(i+1)%len(vars)]}),
		)
		disjuncts = append(disjuncts, c, formula.L(typestate.PVar{X: x}))
	}
	d := formula.ToDNF(formula.Or(disjuncts...), u)
	_ = d.And(d).Simplify()

	agg := obs.NewAgg()
	meta.FlushUniverseObs(agg, u)
	if agg.GaugeMax(obs.FormulaUniverseSize) == 0 {
		t.Fatal("flush did not report the universe size gauge")
	}
	if agg.Counter(obs.FormulaCubeProducts) == 0 {
		t.Fatal("flush did not report cube products")
	}
	if agg.Counter(obs.FormulaSigFiltered)+agg.Counter(obs.FormulaSubsumptionChecks) == 0 {
		t.Fatal("Simplify reported neither filtered pairs nor full checks")
	}
	// Deltas were consumed: a second flush adds nothing to the counters.
	before := agg.Counter(obs.FormulaCubeProducts)
	meta.FlushUniverseObs(agg, u)
	if got := agg.Counter(obs.FormulaCubeProducts); got != before {
		t.Fatalf("second flush re-reported consumed deltas: %d != %d", got, before)
	}
}
