package driver_test

import (
	"reflect"
	"sync"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/driver"
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
