package driver_test

import (
	"reflect"
	"sync"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/obs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// TestProgramIsSharable uses one loaded Program from two goroutines per
// client, the way tracerd and the warm store share it: each builds and
// solves a job and a batch, and reads the site-owner table and the
// environment hash. Under -race it fails if any accessor still fills a
// table lazily; without it, both goroutines must agree on every result.
func TestProgramIsSharable(t *testing.T) {
	p, err := driver.Load(bench.Generate(bench.Suite()[0])) // tsp
	if err != nil {
		t.Fatal(err)
	}
	var methods []string
	for _, m := range p.IR.Methods() {
		methods = append(methods, m.QualName())
	}
	type outcome struct {
		solo  core.Status
		batch []core.Status
		owner string
		env   uint64
	}
	opts := core.Options{MaxIters: 5}
	for _, spec := range driver.Clients() {
		var outs [2]outcome
		var wg sync.WaitGroup
		for g := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := &outs[g]
				res, err := core.Solve(spec.Job(p, 0, 5), opts)
				if err != nil {
					t.Error(err)
					return
				}
				out.solo = res.Status
				idx := make([]int, min(len(spec.Queries(p)), 8))
				for i := range idx {
					idx[i] = i
				}
				br, err := core.SolveBatch(spec.Batch(p, idx, 5), opts)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range br.Results {
					out.batch = append(out.batch, r.Status)
				}
				out.owner = p.SiteOwner(p.Sites[0])
				out.env = p.EnvHash(methods)
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if a, b := outs[0], outs[1]; !reflect.DeepEqual(a, b) || len(a.batch) == 0 {
			t.Fatalf("%s: goroutines disagree: %+v vs %+v", spec.Name, a, b)
		}
	}
}

// TestJobsShareProgramCaches solves one tsp escape query twice through
// spec.Job on one Program. The jobs share the program's literal universe and
// WP cache, so the second solve finds every weakest precondition and theory
// relation the first one derived: it memoizes no new formula and fills no
// theory row.
func TestJobsShareProgramCaches(t *testing.T) {
	p, err := driver.Load(bench.Generate(bench.Suite()[0])) // tsp
	if err != nil {
		t.Fatal(err)
	}
	spec := driver.ClientByName("escape")
	solve := func(i int) *obs.Agg {
		agg := obs.NewAgg()
		if _, err := core.Solve(spec.Job(p, i, 5), core.Options{MaxIters: 100, Recorder: agg}); err != nil {
			t.Fatal(err)
		}
		return agg
	}
	for i := range spec.Queries(p) {
		if solve(i).Counter(obs.MetaWPFormulaMemoMisses) == 0 {
			continue // no backward work to share
		}
		again := solve(i)
		for _, name := range []string{obs.MetaWPFormulaMemoMisses, obs.FormulaTheoryMemoFills} {
			if got := again.Counter(name); got != 0 {
				t.Errorf("query %d: second solve records %s = %d, want 0", i, name, got)
			}
		}
		return
	}
	t.Fatal("no tsp escape query memoized a weakest precondition")
}

// TestBatchFlushesWPCounters: a batch reports the walk and formula-memo
// counters of its parts' WP caches, as a per-query job reports its own, on
// every client (type-state has one part per tracked site).
func TestBatchFlushesWPCounters(t *testing.T) {
	p, err := driver.Load(bench.Generate(bench.Suite()[0])) // tsp
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range driver.Clients() {
		idx := make([]int, len(spec.Queries(p)))
		for i := range idx {
			idx[i] = i
		}
		agg := obs.NewAgg()
		if _, err := core.SolveBatch(spec.Batch(p, idx, 5), core.Options{MaxIters: 100, Recorder: agg}); err != nil {
			t.Fatal(err)
		}
		atoms, changed := agg.Counter(obs.MetaWalkAtoms), agg.Counter(obs.MetaWalkChanged)
		memo := agg.Counter(obs.MetaWPFormulaMemoHits) + agg.Counter(obs.MetaWPFormulaMemoMisses)
		if atoms == 0 || changed == 0 || changed > atoms || memo != changed {
			t.Errorf("%s: batch recorded meta.walk_atoms %d, meta.walk_changed %d, %d formula-memo lookups", spec.Name, atoms, changed, memo)
		}
	}
}

// TestRHSJobsShareProgramCaches: the tabulation jobs of generated queries
// take their literal universe and WP cache from the program, per client and,
// for type-state, per tracked site.
func TestRHSJobsShareProgramCaches(t *testing.T) {
	p, err := driver.LoadRHS(bench.Generate(bench.Suite()[0])) // tsp
	if err != nil {
		t.Fatal(err)
	}
	esc, null, ts := driver.ClientByName("escape"), driver.ClientByName("nullness"), driver.ClientByName("typestate")
	e0 := rhsInner[escape.State, escape.Query, *escape.Analysis](esc.RHSJob(p, 0, 5, false))
	e1 := rhsInner[escape.State, escape.Query, *escape.Analysis](esc.RHSJob(p, 1, 5, false))
	n0 := rhsInner[nullness.State, nullness.Query, *nullness.Analysis](null.RHSJob(p, 0, 5, false))
	n1 := rhsInner[nullness.State, nullness.Query, *nullness.Analysis](null.RHSJob(p, 1, 5, false))
	if e0.WPC == nil || e0.WPC != e1.WPC || e0.Uni != e1.Uni {
		t.Error("two escape jobs do not share the program's caches")
	}
	if n0.WPC == nil || n0.WPC != n1.WPC || n0.Uni != n1.Uni || n0.Uni == e0.Uni {
		t.Error("two nullness jobs do not share the program's nullness caches")
	}
	bySite := map[string]*typestate.Job{}
	for i, q := range p.TypestateQueries() {
		j := rhsInner[typestate.State, typestate.Query, *typestate.Analysis](ts.RHSJob(p, i, 5, false))
		if prev := bySite[q.Site]; prev != nil && (prev.WPC != j.WPC || prev.Uni != j.Uni) {
			t.Errorf("site %s: two type-state jobs do not share its caches", q.Site)
		}
		for site, other := range bySite {
			if site != q.Site && other.WPC == j.WPC {
				t.Errorf("sites %s and %s share a WP cache", site, q.Site)
			}
		}
		bySite[q.Site] = j
	}
	if len(bySite) < 2 {
		t.Fatalf("tsp has %d tracked sites, want several", len(bySite))
	}
}

// rhsInner returns the inline job an RHS job delegates its backward pass to.
func rhsInner[D comparable, Q client.Query, A client.Analysis[D, Q]](pr core.Problem) *client.Job[D, Q, A] {
	return pr.(*driver.RHSJob[D, Q, A]).Inner
}

// walkSpy records, per backward walk of a solve, the budget's step count at
// entry and exit, and counts walks that a budget trip cut short.
type walkSpy struct {
	core.Problem
	walks   *[][2]int64
	tripped *int
}

func (s walkSpy) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	entry, before := b.Steps(), b.Tripped()
	cubes := s.Problem.Backward(b, p, t)
	*s.walks = append(*s.walks, [2]int64{entry, b.Steps()})
	if !before && b.Tripped() {
		*s.tripped++
	}
	return cubes
}

// TestProgramCachesOrderIndependent solves every tsp query of every client
// on one Program, whose caches therefore hold whatever the earlier solves
// left there. It runs three rounds. First, once per backward walk, under a
// step quota that trips halfway through that walk: the caches are still
// cold, so a truncated walk runs where it would otherwise memoize what it
// computed. Then every query in generation order, and then in reverse
// order. Every solve of the last two rounds must match a solve on a freshly
// loaded Program in status, cost, abstraction, iterations and clauses.
func TestProgramCachesOrderIndependent(t *testing.T) {
	src := bench.Generate(bench.Suite()[0]) // tsp
	p, err := driver.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	type verdict struct {
		status            core.Status
		abs               string
		cost, iters, clss int
	}
	verdictOf := func(r core.Result) verdict {
		return verdict{r.Status, r.Abstraction.Key(), r.Abstraction.Len(), r.Iterations, r.Clauses}
	}
	// A huge quota makes Solve build a budget, so walkSpy can read its steps.
	opts := core.Options{MaxIters: 100, MaxSteps: 1 << 50}
	midWalk := 0
	for _, spec := range driver.Clients() {
		n := len(spec.Queries(p))
		fresh := make([]verdict, n)
		walks := make([][][2]int64, n)
		for i := range n {
			fp, err := driver.Load(src)
			if err != nil {
				t.Fatal(err)
			}
			var ignored int
			r, err := core.Solve(walkSpy{spec.Job(fp, i, 5), &walks[i], &ignored}, opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh[i] = verdictOf(r)
		}
		for i := range n {
			for _, w := range walks[i] {
				q := opts
				q.MaxSteps = (w[0] + w[1]) / 2
				var ignored [][2]int64
				if _, err := core.Solve(walkSpy{spec.Job(p, i, 5), &ignored, &midWalk}, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(round string, i int) {
			r, err := core.Solve(spec.Job(p, i, 5), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := verdictOf(r); got != fresh[i] {
				t.Errorf("%s query %d, %s: shared caches give %+v, a fresh program %+v", spec.Name, i, round, got, fresh[i])
			}
		}
		for i := range n {
			check("generation order", i)
		}
		for i := n - 1; i >= 0; i-- {
			check("reverse order", i)
		}
	}
	if midWalk == 0 {
		t.Error("no quota tripped inside a backward walk; the quota round tested nothing")
	}
}
