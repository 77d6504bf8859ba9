package driver_test

import (
	"math/rand"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/driver"
)

// TestEnvHashMatchesScan pins EnvHash's values against the per-call scan it
// replaced, over every suite program and random method lists: subsets in
// random order, with duplicates and names the program does not have.
func TestEnvHashMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range bench.Suite() {
		p, err := driver.Load(bench.Generate(cfg))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		var all []string
		for _, m := range p.IR.Methods() {
			all = append(all, m.QualName())
		}
		lists := [][]string{nil, all, {"NoSuch.method"}}
		for i := 0; i < 200; i++ {
			// Half the lists are trace-support sized, half any size.
			n := rng.Intn(len(all) + 1)
			if i%2 == 0 {
				n = rng.Intn(min(6, len(all)) + 1)
			}
			var ms []string
			for _, j := range rng.Perm(len(all))[:n] {
				ms = append(ms, all[j])
				if rng.Intn(8) == 0 {
					ms = append(ms, all[j])
				}
			}
			if rng.Intn(4) == 0 {
				ms = append(ms, "NoSuch.method")
			}
			lists = append(lists, ms)
		}
		for _, ms := range lists {
			if got, want := p.EnvHash(ms), p.EnvHashScan(ms); got != want {
				t.Fatalf("%s: EnvHash(%v) = %016x, scan gives %016x", cfg.Name, ms, got, want)
			}
		}
	}
}
