package oracle

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// figure1Job builds the paper's Fig 1(a) program with a query for the given
// state set — the published example the oracle self-checks against.
//
//	x = new File; y = x; if (*) z = x; x.open(); y.close(); check(x, σ)
func figure1Job(want ...string) *typestate.Job {
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.If(lang.Atoms(lang.Move{Dst: "z", Src: "x"})),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
		lang.Atoms(lang.Invoke{V: "y", M: "close"}),
	)
	g := lang.BuildCFG(prog)
	a := typestate.New(typestate.FileProperty(), "h", typestate.CollectVars(g))
	var w uset.Bits
	for _, s := range want {
		w = w.Add(a.Prop.MustState(s))
	}
	return &typestate.Job{A: a, G: g, Q: typestate.Query{Nodes: []int{g.Exit}, Want: w}, K: 1}
}

// TestFigure1SelfCheck runs the brute-force oracle on Fig 1: the enumerated
// minimum for check1 must equal the published cost 2 ({x, y}), check2 must
// be impossible, and the full differential check must pass for both.
func TestFigure1SelfCheck(t *testing.T) {
	truth := Enumerate(figure1Job("closed"))
	if !truth.Possible() {
		t.Fatal("check1 enumerated as impossible; the paper proves it at cost 2")
	}
	if got := truth.MinCost(); got != 2 {
		t.Fatalf("check1 enumerated minimum cost = %d, published cost is 2", got)
	}
	if v := CheckSolve(func() core.Problem { return figure1Job("closed") }, core.Options{}); len(v) != 0 {
		t.Fatalf("check1 oracle violations: %v", v)
	}

	// The solver's witness must be the published {x, y} abstraction.
	res, err := core.Solve(figure1Job("closed"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := figure1Job("closed")
	got := map[string]bool{}
	for _, v := range res.Abstraction.Elems() {
		got[j.A.Vars.Value(v)] = true
	}
	if len(got) != 2 || !got["x"] || !got["y"] {
		t.Fatalf("cheapest abstraction = %v, want {x, y}", got)
	}

	if truth := Enumerate(figure1Job("opened")); truth.Possible() {
		t.Fatal("check2 enumerated as possible; the paper shows it is impossible")
	}
	if v := CheckSolve(func() core.Problem { return figure1Job("opened") }, core.Options{}); len(v) != 0 {
		t.Fatalf("check2 oracle violations: %v", v)
	}
}

// figure6Job builds the paper's Fig 6 program with the local(u) query.
//
//	u = new h1; v = new h2; v.f = u; pc: local(u)?
func figure6Job() *escape.Job {
	prog := lang.Atoms(
		lang.Alloc{V: "u", H: "h1"},
		lang.Alloc{V: "v", H: "h2"},
		lang.Store{Dst: "v", F: "f", Src: "u"},
	)
	g := lang.BuildCFG(prog)
	locals, fields, sites := escape.Universe(g)
	a := escape.New(locals, fields, sites)
	return &escape.Job{A: a, G: g, Q: escape.Query{Nodes: []int{g.Exit}, V: "u"}, K: 1}
}

// TestFigure6SelfCheck runs the oracle on Fig 6: the enumerated minimum must
// equal the published cost 2 ([h1↦L, h2↦L]) and the differential check must
// pass under both beam widths the paper discusses (k = 1 and k = 0).
func TestFigure6SelfCheck(t *testing.T) {
	truth := Enumerate(figure6Job())
	if !truth.Possible() {
		t.Fatal("Fig 6 enumerated as impossible; the paper proves it at cost 2")
	}
	if got := truth.MinCost(); got != 2 {
		t.Fatalf("Fig 6 enumerated minimum cost = %d, published cost is 2", got)
	}
	for _, k := range []int{1, 0} {
		if v := CheckSolve(func() core.Problem { j := figure6Job(); j.K = k; return j }, core.Options{}); len(v) != 0 {
			t.Fatalf("k=%d oracle violations: %v", k, v)
		}
	}

	res, err := core.Solve(figure6Job(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := figure6Job()
	want := uset.New(j.A.Sites.ID("h1")).Add(j.A.Sites.ID("h2"))
	if !res.Abstraction.Equal(want) {
		t.Fatalf("abstraction = %v, want {h1, h2}", res.Abstraction)
	}
}

// TestTruthHelpers pins the bitmask plumbing the whole oracle rests on.
func TestTruthHelpers(t *testing.T) {
	if p := setOf(0); !p.Empty() {
		t.Fatalf("setOf(0) = %v, want empty", p)
	}
	if p := setOf(0b101); !p.Equal(uset.New(0, 2)) {
		t.Fatalf("setOf(0b101) = %v, want {0, 2}", p)
	}
	for _, mask := range []int{0, 1, 0b110, 0b1011, 0b11111} {
		if got := maskOf(setOf(mask)); got != mask {
			t.Fatalf("maskOf(setOf(%#b)) = %#b", mask, got)
		}
	}
	tr := Truth{N: 2, Proves: []bool{false, false, true, true}}
	if !tr.Possible() || tr.MinCost() != 1 {
		t.Fatalf("Possible=%v MinCost=%d, want true/1", tr.Possible(), tr.MinCost())
	}
	if !tr.ProvesSet(uset.New(1)) || tr.ProvesSet(uset.New(0)) {
		t.Fatal("ProvesSet disagrees with the table")
	}
	none := Truth{N: 1, Proves: []bool{false, false}}
	if none.Possible() || none.MinCost() != -1 {
		t.Fatal("impossible truth must report Possible=false, MinCost=-1")
	}
}

// TestFuzzProperties is the tier-1 fixed-seed sweep of the three oracle
// properties (minimality, impossibility, cube soundness), 2000 cases per
// client. A 12 000-case type-state run with the same generator found no
// discrepancies; this keeps a broad slice of that sweep in every CI run.
func TestFuzzProperties(t *testing.T) {
	for _, f := range Fuzzers {
		t.Run(f.Client, func(t *testing.T) {
			if ds := f.Fuzz(FuzzOptions{Seed: 1, N: 2000}); len(ds) != 0 {
				t.Fatalf("%d discrepancies, first:\n%s", len(ds), ds[0])
			}
		})
	}
}

// TestFuzzMetamorphic runs the metamorphic suite (permutation, padding,
// delta-vs-cold, batch worker/donor invariance, warm seeding) on fixed-seed
// cases of every client.
func TestFuzzMetamorphic(t *testing.T) {
	for _, f := range Fuzzers {
		t.Run(f.Client, func(t *testing.T) {
			if ds := f.Fuzz(FuzzOptions{Seed: 42, N: 300, Meta: true}); len(ds) != 0 {
				t.Fatalf("%d discrepancies, first:\n%s", len(ds), ds[0])
			}
		})
	}
}

// TestFuzzCoversEveryClient fails when a registered client has no fuzzer,
// so a new client cannot skip the oracle.
func TestFuzzCoversEveryClient(t *testing.T) {
	have := map[string]bool{}
	for _, f := range Fuzzers {
		have[f.Client] = true
	}
	for _, spec := range driver.Clients() {
		if !have[spec.Name] {
			t.Errorf("client %s has no oracle fuzzer", spec.Name)
		}
	}
}

// TestFuzzDeterministic: the same options must reproduce byte-identical
// reports — the property every replay instruction in a Discrepancy rests on.
func TestFuzzDeterministic(t *testing.T) {
	a := Fuzzers[0].Fuzz(FuzzOptions{Seed: 7, N: 50, Meta: true})
	b := Fuzzers[0].Fuzz(FuzzOptions{Seed: 7, N: 50, Meta: true})
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("report %d differs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}
