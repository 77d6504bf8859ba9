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
	type flags struct {
		auto, batch, workers bool
		warmDir              string
		explain              bool
	}
	all := flags{auto: true, batch: true, workers: true, warmDir: "w", explain: true}
	for _, c := range []struct {
		name, engine string
		flags
		reject string // the flag the error must name; "" = accepted
	}{
		{"inline", "inline", all, ""},
		{"rhs", "rhs", flags{}, ""},
		{"bogus", "bogus", flags{auto: true}, "-engine"},
		{"rhs-auto", "rhs", flags{auto: true}, "-auto"},
		{"rhs-batch", "rhs", flags{batch: true}, "-batch"},
		{"rhs-warm-dir", "rhs", flags{warmDir: "w"}, "-warm-dir"},
		{"rhs-explain", "rhs", flags{explain: true}, "-explain"},
		{"inline-explain", "inline", flags{explain: true}, ""},
		{"batch-without-auto", "inline", flags{batch: true}, "-batch"},
		{"batch-workers-without-auto", "inline", flags{workers: true}, "-batch-workers"},
		{"batch-workers-without-batch", "inline", flags{auto: true, workers: true}, "-batch-workers"},
		{"warm-dir-without-auto", "inline", flags{warmDir: "w"}, "-warm-dir"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkEngine(c.engine, c.auto, c.batch, c.workers, c.warmDir, c.explain)
			switch {
			case c.reject == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)):
				t.Fatalf("error %v; want one naming %s", err, c.reject)
			}
		})
	}
}
