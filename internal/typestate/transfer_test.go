package typestate

import (
	"testing"

	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// TestTransferRulesFig4 spells out the transfer function of Fig 4 case by
// case on the File property, as executable documentation.
func TestTransferRulesFig4(t *testing.T) {
	a := newTestAnalysis(FileProperty())
	x, _ := a.Vars.Lookup("x")
	y, _ := a.Vars.Lookup("y")
	closed, opened := uset.Bits(1), uset.Bits(2)
	both := closed | opened

	mk := func(ts uset.Bits, vs ...int) State { return a.MkState(ts, uset.New(vs...)) }
	pAll := uset.New(x, y)

	cases := []struct {
		name string
		p    uset.Set
		atom lang.Atom
		in   State
		want State
	}{
		// [x = y]p: x joins vs iff y ∈ vs and x ∈ p.
		{"move tracked alias", pAll, lang.Move{Dst: "x", Src: "y"}, mk(closed, y), mk(closed, x, y)},
		{"move untracked dst", uset.New(y), lang.Move{Dst: "x", Src: "y"}, mk(closed, y), mk(closed, y)},
		{"move non-alias src", pAll, lang.Move{Dst: "x", Src: "y"}, mk(closed, x), mk(closed)},
		// [x = null]p: x leaves vs.
		{"null kills", pAll, lang.MoveNull{V: "x"}, mk(closed, x, y), mk(closed, y)},
		// [x = new h]p at the tracked site: x definitely points to it.
		{"alloc tracked site", pAll, lang.Alloc{V: "x", H: "h"}, mk(closed, y), mk(closed, x, y)},
		{"alloc other site", pAll, lang.Alloc{V: "x", H: "other"}, mk(closed, x), mk(closed)},
		{"alloc untracked var", uset.New(y), lang.Alloc{V: "x", H: "h"}, mk(closed), mk(closed)},
		// Loads and global reads kill must-alias facts.
		{"load kills", pAll, lang.Load{Dst: "x", Src: "y", F: "f"}, mk(closed, x), mk(closed)},
		{"global read kills", pAll, lang.GlobalRead{V: "x", G: "G"}, mk(closed, x), mk(closed)},
		// Stores and global writes are identity.
		{"store identity", pAll, lang.Store{Dst: "x", F: "f", Src: "y"}, mk(opened, x), mk(opened, x)},
		// [x.m()]p: strong update when x ∈ vs.
		{"strong open", pAll, lang.Invoke{V: "x", M: "open"}, mk(closed, x), mk(opened, x)},
		// Weak update when x ∉ vs: union of old and new type-states.
		{"weak open", pAll, lang.Invoke{V: "x", M: "open"}, mk(closed), mk(both)},
		// ⊤ when any current state transitions to error.
		{"double open errs", pAll, lang.Invoke{V: "x", M: "open"}, mk(opened, x), TopState()},
		{"weak close errs", pAll, lang.Invoke{V: "y", M: "close"}, mk(both), TopState()},
		// Non-property methods are ignored.
		{"unknown method", pAll, lang.Invoke{V: "x", M: "frob"}, mk(opened, x), mk(opened, x)},
		// ⊤ is absorbing.
		{"top absorbs", pAll, lang.Move{Dst: "x", Src: "y"}, TopState(), TopState()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := dataflow.At(a.Step, tc.p)(tc.atom, tc.in)
			if got != tc.want {
				t.Fatalf("[%s]p(%s) = %s, want %s", tc.atom, a.Format(tc.in), a.Format(got), a.Format(tc.want))
			}
		})
	}
}

// TestOnlyWeakTransition: the stress property's transition fires only on
// weak updates (precisely tracked receivers stay in init).
func TestOnlyWeakTransition(t *testing.T) {
	a := newTestAnalysis(StressProperty([]string{"m"}))
	x, _ := a.Vars.Lookup("x")
	init := uset.Bits(1)
	tracked := a.MkState(init, uset.New(x))
	untracked := a.MkState(init, nil)
	call := lang.Invoke{V: "x", M: "m"}

	if got := dataflow.At(a.Step, uset.New(x))(call, tracked); got != tracked {
		t.Fatalf("tracked receiver transitioned: %s", a.Format(got))
	}
	got := dataflow.At(a.Step, nil)(call, untracked)
	if got.Top || !got.TS.Has(1) || !got.TS.Has(0) {
		t.Fatalf("untracked receiver state = %s, want {init,error}", a.Format(got))
	}
}

// TestMayAliasOracleGates: calls whose receiver cannot point to the tracked
// site are identity.
func TestMayAliasOracleGates(t *testing.T) {
	a := newTestAnalysis(FileProperty())
	a.MayPoint = func(v string) bool { return v == "x" }
	opened := uset.Bits(2)
	d := a.MkState(opened, nil)
	if got := dataflow.At(a.Step, nil)(lang.Invoke{V: "y", M: "open"}, d); got != d {
		t.Fatalf("gated call changed state: %s", a.Format(got))
	}
	if got := dataflow.At(a.Step, nil)(lang.Invoke{V: "x", M: "open"}, d); !got.Top {
		t.Fatalf("ungated double open did not err: %s", a.Format(got))
	}
}
