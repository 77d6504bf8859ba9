package minsat

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/uset"
)

// hardInstance builds a random vertex-cover formula: a clause (xi ∨ xj) for
// ~30% of the pairs i < j < n. Its diagram makes thousands of nodes — far
// more than one polling interval — and at n = 60 it passes the node cap
// even after compaction, while the reference's branch-and-bound still
// answers in milliseconds.
func hardInstance(n int) *Solver {
	rng := rand.New(rand.NewSource(1))
	s := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(100) < 30 {
				s.Add(Clause{{Var: i}, {Var: j}})
			}
		}
	}
	return s
}

// TestMinimumBudgetNil: a nil budget behaves exactly like Minimum.
func TestMinimumBudgetNil(t *testing.T) {
	s := hardInstance(8)
	m, ok := s.MinimumBudget(nil)
	if !ok {
		t.Fatal("satisfiable formula reported unsat")
	}
	want, _ := bruteMinimum(s, 8)
	if !m.Equal(want) {
		t.Fatalf("model = %v, want %v", m, want)
	}
}

// TestMinimumBudgetAbort: an expired deadline abandons the diagram build
// with ok=false and a tripped budget, so callers can tell "aborted" from
// "unsat".
func TestMinimumBudgetAbort(t *testing.T) {
	s := hardInstance(60)
	b := budget.New(nil, time.Now().Add(-time.Second), 0)
	start := time.Now()
	_, ok := s.MinimumBudget(b)
	if ok {
		t.Fatal("aborted call returned a model")
	}
	if !b.Tripped() || b.Cause() != budget.Deadline {
		t.Fatalf("budget cause = %v, want deadline", b.Cause())
	}
	// An aborted call must return almost immediately (one polling interval
	// of nodes).
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("aborted call took %v", d)
	}
	// The formula is satisfiable: the reference proves it.
	if _, ok := refOver(hardInstance(60)).minimum(nil); !ok {
		t.Fatal("control: the reference reports the hard instance unsat")
	}
}

// TestMinimumBudgetSpace: a diagram past the node cap is never an answer.
// Under a budget with no limits the call trips it on cause Space and
// returns ok=false. With no budget to trip, the next call on the same
// solver panics, naming the cap, rather than report UNSAT.
func TestMinimumBudgetSpace(t *testing.T) {
	s := hardInstance(60)
	b := budget.New(nil, time.Time{}, 0)
	if m, ok := s.MinimumBudget(b); ok || m != nil || b.Cause() != budget.Space {
		t.Fatalf("%v,%v with cause %v; want no model and cause space", m, ok, b.Cause())
	}
	if n := DiagramNodes(s); n > nodeCap {
		t.Fatalf("arena of %d nodes past the cap of %d", n, nodeCap)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, strconv.Itoa(nodeCap)) {
			t.Fatalf("recovered %q; want a panic that names the cap of %d nodes", msg, nodeCap)
		}
	}()
	m, ok := s.MinimumBudget(nil)
	t.Fatalf("nil budget: %v,%v; want a panic", m, ok)
}

// TestMinimumBudgetStepQuota: the per-node poll enforces a step quota.
func TestMinimumBudgetStepQuota(t *testing.T) {
	s := hardInstance(60)
	b := budget.New(nil, time.Time{}, 50)
	_, ok := s.MinimumBudget(b)
	if ok {
		t.Fatal("quota-tripped call returned a model")
	}
	if b.Cause() != budget.Steps {
		t.Fatalf("cause = %v, want steps", b.Cause())
	}
}

// TestMinimumBudgetPreTripped: a budget tripped before the call aborts it
// immediately without touching the clause set's answer.
func TestMinimumBudgetPreTripped(t *testing.T) {
	s := New(4)
	s.Block(nil, uset.New(0)) // clause (x0): trivially satisfiable
	b := budget.New(nil, time.Time{}, 0)
	b.Trip(budget.Injected)
	if _, ok := s.MinimumBudget(b); ok {
		t.Fatal("pre-tripped budget still produced a model")
	}
	if m, ok := s.Minimum(); !ok || !m.Equal(uset.New(0)) {
		t.Fatalf("control Minimum = %v, %v", m, ok)
	}
}
