package faultinject

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tracer/internal/budget"
)

// TestNilInjector: a nil *Injector is inert at every hook.
func TestNilInjector(t *testing.T) {
	var in *Injector
	in.At(nil, SiteForward, "i1") // must not panic
	if in.Fired() != nil {
		t.Fatal("nil injector reports fired faults")
	}
}

// TestPanicAt: an explicit panic rule throws a *Fault identifying the hook.
func TestPanicAt(t *testing.T) {
	in := New()
	in.PanicAt(SiteBackward, "r0.q1")
	in.At(nil, SiteBackward, "r0.q2") // different key: no fault
	func() {
		defer func() {
			r := recover()
			f, ok := r.(*Fault)
			if !ok {
				t.Fatalf("recovered %v (%T), want *Fault", r, r)
			}
			if f.Site != SiteBackward || f.Key != "r0.q1" {
				t.Fatalf("Fault = %+v, want backward r0.q1", f)
			}
			if !strings.Contains(f.Error(), "backward r0.q1") {
				t.Fatalf("Error() = %q", f.Error())
			}
		}()
		in.At(nil, SiteBackward, "r0.q1")
		t.Fatal("PanicAt rule did not panic")
	}()
	if got := in.Fired(); !reflect.DeepEqual(got, []string{"panic backward r0.q1"}) {
		t.Fatalf("Fired = %v", got)
	}
}

// TestTripAt: a trip rule trips the budget with cause Injected, and is a
// no-op on a nil budget.
func TestTripAt(t *testing.T) {
	in := New()
	in.TripAt(SiteMinimum, "i3")
	in.At(nil, SiteMinimum, "i3") // nil budget: no crash
	b := budget.New(nil, time.Time{}, 0)
	in.At(b, SiteMinimum, "i3")
	if b.Cause() != budget.Injected {
		t.Fatalf("cause = %v, want injected", b.Cause())
	}
}

// TestDelayAt: a delay rule sleeps at least the configured duration.
func TestDelayAt(t *testing.T) {
	in := New()
	in.DelayAt(SiteForward, "i1", 5*time.Millisecond)
	start := time.Now()
	in.At(nil, SiteForward, "i1")
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay was %v, want >= 5ms", d)
	}
}

// TestSeededDeterminism: the same seed fires the same faults at the same
// hooks; a different seed gives a different firing set; rate 0 never fires.
func TestSeededDeterminism(t *testing.T) {
	hooks := []struct {
		site Site
		key  string
	}{}
	for _, site := range []Site{SiteMinimum, SiteForward, SiteBackward} {
		for _, key := range []string{"r0.g0", "r0.g1", "r1.g0", "r1.q2", "r2.0,3,", "i1", "i2"} {
			hooks = append(hooks, struct {
				site Site
				key  string
			}{site, key})
		}
	}
	sweep := func(seed int64, rate float64) []string {
		in := Seeded(seed, rate)
		for _, h := range hooks {
			func() {
				defer func() { recover() }() // swallow injected panics
				in.At(budget.New(nil, time.Time{}, 0), h.site, h.key)
			}()
		}
		return in.Fired()
	}
	a, b := sweep(42, 0.5), sweep(42, 0.5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed fired differently:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("rate 0.5 over 21 hooks fired nothing; seeded hashing is broken")
	}
	if c := sweep(43, 0.5); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds fired identically; seed is not mixed into the hash")
	}
	if z := sweep(42, 0); len(z) != 0 {
		t.Fatalf("rate 0 fired %v", z)
	}
}

// TestExplicitOverridesSeeded: an explicit rule at a hook beats the seeded
// decision for that hook.
func TestExplicitOverridesSeeded(t *testing.T) {
	in := Seeded(7, 1) // every hook would fire something
	in.DelayAt(SiteForward, "i1", time.Microsecond)
	in.At(nil, SiteForward, "i1") // must not panic: explicit delay wins
	if got := in.Fired(); !reflect.DeepEqual(got, []string{"delay forward i1"}) {
		t.Fatalf("Fired = %v, want the explicit delay", got)
	}
}

// TestScopeDrawsIndependently: under one seed, two scoped injectors see the
// same keys yet draw different decisions; a scope's decisions depend only on
// the seed and its name; fired faults land, prefixed, in the root's log.
func TestScopeDrawsIndependently(t *testing.T) {
	// draw runs the backward hooks of 200 rounds of query 0, as one
	// core.Solve sees them, and returns the fired faults without the prefix.
	draw := func(root *Injector, name string) []string {
		in := root.Scope(name)
		for r := 0; r < 200; r++ {
			func() {
				defer func() { recover() }()
				in.At(budget.New(nil, time.Time{}, 0), SiteBackward, fmt.Sprintf("r%d.q0", r))
			}()
		}
		var out []string
		for _, f := range root.Fired() {
			if !strings.Contains(f, " "+name+"/r") {
				t.Fatalf("fired %q without the prefix %s/", f, name)
			}
			out = append(out, strings.Replace(f, name+"/", "", 1))
		}
		return out
	}
	a, b := draw(Seeded(1, 0.2), "qa"), draw(Seeded(1, 0.2), "qb")
	if len(a) == 0 || reflect.DeepEqual(a, b) {
		t.Fatalf("two scopes drew %v and %v under one seed", a, b)
	}
	if again := draw(Seeded(1, 0.2), "qa"); !reflect.DeepEqual(a, again) {
		t.Fatalf("scope qa drew %v, then %v", a, again)
	}
	if p := Seeded(1, 0.2).Scope("x").Scope("y").prefix; p != "x/y/" {
		t.Fatalf("nested prefix %q, want x/y/", p)
	}
	var none *Injector
	if none.Scope("q") != nil {
		t.Fatal("the scope of a nil injector is not nil")
	}
}
