package rhs_test

import (
	"reflect"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/ir"
	"tracer/internal/pointsto"
	"tracer/internal/rhs"
)

// TestFromIRDeterministic: FromIR lowers methods in supergraph-index order,
// so lowering one suite program twice yields the same supergraph and the
// same record lists, in the same order. Inline and the explicit jobs read
// those lists in order.
func TestFromIRDeterministic(t *testing.T) {
	prog := ir.MustParse(bench.Generate(bench.Suite()[2])) // hedc
	pt, err := pointsto.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	first, err := rhs.FromIR(prog, pt)
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		again, err := rhs.FromIR(prog, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Calls, first.Calls) {
			t.Fatal("two lowerings list the calls differently")
		}
		if !reflect.DeepEqual(again.Accesses, first.Accesses) {
			t.Fatal("two lowerings list the field accesses differently")
		}
		if !reflect.DeepEqual(again.Queries, first.Queries) {
			t.Fatal("two lowerings list the query statements differently")
		}
		if !reflect.DeepEqual(again.G, first.G) {
			t.Fatal("two lowerings build different supergraphs")
		}
	}
}
