package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tracer/internal/bench"
	"tracer/internal/core"
)

// TestServerWarmMatchesCold: a warm store mounted on tracerd changes no
// verdict and carries learning from one daemon to the next. Server A solves
// every tsp type-state query at once, one query per round on the default
// executor pool, so rounds over the one program save concurrently; server B
// then solves them again on the same store. Both match a direct core.Solve,
// and a query that took three or more iterations on A takes at most two on
// B, which holds only if no round's save dropped another round's learning.
func TestServerWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus warm path is not a -short test")
	}
	b := bench.MustLoad(bench.Suite()[0]) // tsp
	queries := b.Prog.TypestateQueries()
	truth := localTruth(t, b.Source, 5)
	dir := t.TempDir()

	solveAll := func(name string) []SolveResponse {
		t.Helper()
		s := New(Config{WarmDir: dir, BatchSize: 1})
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		resps := make([]SolveResponse, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = trySolve(hs.URL, SolveRequest{
					Program: b.Source, Client: "typestate",
					Query: fmt.Sprintf("#%d", i), K: 5, TimeoutMS: 60000,
				})
			}(i)
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("server %s: Shutdown: %v", name, err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("server %s, %s: %v", name, queries[i].ID, err)
			}
		}
		if n := s.Snapshot().WarmSaveErrors; n != 0 {
			t.Fatalf("server %s: %d warm save errors", name, n)
		}
		return resps
	}
	a := solveAll("A")
	w := solveAll("B")

	slow := 0
	for i, q := range queries {
		want := truth["typestate/"+q.ID]
		for name, resp := range map[string]SolveResponse{"A": a[i], "B": w[i]} {
			if resp.Status != want.Status.String() {
				t.Errorf("server %s, %s: status %s, want %s", name, q.ID, resp.Status, want.Status)
			} else if want.Status == core.Proved && resp.Cost != want.Abstraction.Len() {
				t.Errorf("server %s, %s: cost %d, want %d", name, q.ID, resp.Cost, want.Abstraction.Len())
			}
		}
		if a[i].Iterations >= 3 {
			slow++
			if w[i].Iterations > 2 {
				t.Errorf("%s: %d iterations on A, %d warm on B", q.ID, a[i].Iterations, w[i].Iterations)
			}
		}
	}
	if slow == 0 {
		t.Fatal("test premise broken: no query took three or more iterations on A")
	}
}
