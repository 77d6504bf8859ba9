package main

import (
	"strings"
	"testing"
)

// TestCheckEngine: an unknown -engine value is rejected, and so is each
// flag the run would otherwise ignore: those the rhs engine does not
// implement, and those for generated queries without -auto. Every error
// names the flag.
func TestCheckEngine(t *testing.T) {
	all := cliFlags{engine: "inline", auto: true, batch: true, warmDir: "w", explain: true, chaos: true,
		set: []string{"auto", "batch", "batch-workers", "chaos-rate", "chaos-seed", "explain", "warm-dir"}, nargs: 1}
	for _, c := range []struct {
		name   string
		cl     cliFlags
		reject string // the flag the error must name; "" = accepted
	}{
		{"inline", all, ""},
		{"rhs", cliFlags{engine: "rhs"}, ""},
		{"bogus", cliFlags{engine: "bogus", auto: true}, "-engine"},
		{"rhs-auto", cliFlags{engine: "rhs", auto: true}, "-auto"},
		{"rhs-batch", cliFlags{engine: "rhs", batch: true}, "-batch"},
		{"rhs-warm-dir", cliFlags{engine: "rhs", warmDir: "w"}, "-warm-dir"},
		{"rhs-explain", cliFlags{engine: "rhs", explain: true}, "-explain"},
		{"inline-explain", cliFlags{engine: "inline", explain: true}, ""},
		{"batch-without-auto", cliFlags{engine: "inline", batch: true}, "-batch"},
		{"batch-workers-without-auto", cliFlags{engine: "inline", set: []string{"batch-workers"}}, "-batch-workers"},
		{"batch-workers-without-batch", cliFlags{engine: "inline", auto: true, set: []string{"batch-workers"}}, "-batch-workers"},
		{"warm-dir-without-auto", cliFlags{engine: "inline", warmDir: "w"}, "-warm-dir"},
		{"fuzz", cliFlags{engine: "inline", fuzzN: 2, set: []string{"fuzz-meta", "fuzz-n", "fuzz-seed"}}, ""},
		{"fuzz-with-other-flag", cliFlags{engine: "inline", auto: true, fuzzN: 2, set: []string{"auto", "fuzz-n", "metrics", "trace"}}, "-auto"},
		{"fuzz-with-program", cliFlags{engine: "inline", fuzzN: 2, set: []string{"fuzz-n"}, nargs: 1}, "program"},
		{"fuzz-seed-without-fuzz-n", cliFlags{engine: "inline", set: []string{"fuzz-seed"}}, "-fuzz-seed"},
		{"fuzz-meta-without-fuzz-n", cliFlags{engine: "inline", set: []string{"fuzz-n", "fuzz-meta"}}, "-fuzz-meta"},
		{"chaos-rate-without-chaos-seed", cliFlags{engine: "inline", set: []string{"chaos-rate"}}, "-chaos-rate"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkEngine(c.cl)
			switch {
			case c.reject == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)):
				t.Fatalf("error %v; want one naming %s", err, c.reject)
			}
		})
	}
}
