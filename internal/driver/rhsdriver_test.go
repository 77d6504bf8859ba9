package driver

import (
	"strings"
	"testing"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// recursiveSrc builds a linked structure through recursion — the inlining
// pipeline rejects it, the tabulation pipeline resolves its queries.
const recursiveSrc = `
global registry

class Node {
  field next
  method grow(this, n) {
    var child, out
    out = this
    if * {
      child = new Node @ hChild
      this.next = child
      out = child.grow(n)
    }
    return out
  }
  method leak(this) {
    if * {
      registry = this
    }
  }
}

class File {
  native method open(this)
  native method close(this)
}

class Main {
  method main(this) {
    var root, tail, f, priv
    root = new Node @ hRoot
    tail = root.grow(root)
    root.leak()
    f = new File @ hFile
    f.open()
    f.close()
    query qFile state(f: closed)
    query qRoot local(root)
    priv = new Node @ hPriv
    query qPriv local(priv)
  }
}
`

func TestRHSPipelineRecursive(t *testing.T) {
	if _, err := Load(recursiveSrc); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("inlining pipeline should reject recursion, got %v", err)
	}
	p, err := LoadRHS(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := p.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]core.Status{
		"qFile@hFile": core.Proved,     // open/close in order, untouched by recursion
		"qRoot":       core.Impossible, // leaked to the registry on one path
		"qPriv":       core.Proved,     // never escapes
	}
	for name, status := range want {
		job, ok := jobs[name]
		if !ok {
			t.Fatalf("missing job %s (have %v)", name, jobNames(jobs))
		}
		res, err := core.Solve(job, core.Options{MaxIters: 200})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status != status {
			t.Errorf("%s: status %v, want %v (iters=%d)", name, res.Status, status, res.Iterations)
		}
	}
}

func jobNames(m map[string]core.Problem) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRHSMatchesInlinerOutcomes: on the acyclic interproc program, the two
// backends resolve the explicit queries of one Program identically, with
// identical cheapest abstractions.
func TestRHSMatchesInlinerOutcomes(t *testing.T) {
	inl := load(t)
	rhsJobs, err := inl.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}

	// Escape queries.
	for name, inlJob := range inl.ExplicitEscapeJobs(5) {
		want, err := core.Solve(inlJob, core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Solve(rhsJobs[name], core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Errorf("%s: rhs %v vs inliner %v", name, got.Status, want.Status)
		}
		if want.Status == core.Proved && got.Abstraction.Len() != want.Abstraction.Len() {
			t.Errorf("%s: rhs |p|=%d vs inliner %d", name, got.Abstraction.Len(), want.Abstraction.Len())
		}
	}
	// Type-state queries.
	inlTS, err := inl.ExplicitTypestateJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, inlJob := range inlTS {
		want, err := core.Solve(inlJob, core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Solve(rhsJobs[name], core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Errorf("%s: rhs %v vs inliner %v", name, got.Status, want.Status)
		}
		if want.Status == core.Proved && got.Abstraction.Len() != want.Abstraction.Len() {
			t.Errorf("%s: rhs |p|=%d vs inliner %d", name, got.Abstraction.Len(), want.Abstraction.Len())
		}
	}
}

// lastForward records the outcome of a problem's most recent forward run.
type lastForward struct {
	core.Problem
	last core.Outcome
}

func (l *lastForward) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	l.last = l.Problem.Forward(b, p)
	return l.last
}

// TestRHSProvedCountsFinalForwardSteps: a proved query's ForwardSteps must
// include the tabulation that proved it, on the cold and the delta path.
func TestRHSProvedCountsFinalForwardSteps(t *testing.T) {
	p, err := LoadRHS(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	proved := 0
	for _, spec := range Clients() {
		for i, q := range spec.Queries(p) {
			for _, noDelta := range []bool{true, false} {
				job := &lastForward{Problem: spec.RHSJob(p, i, 1, noDelta)}
				res, err := core.Solve(job, core.Options{MaxIters: 200})
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != core.Proved {
					continue
				}
				proved++
				if job.last.Steps == 0 || res.ForwardSteps < job.last.Steps {
					t.Errorf("rhs %s %s (nodelta=%t): proved in %d iterations with ForwardSteps=%d, final forward run %d steps",
						spec.Name, q.ID, noDelta, res.Iterations, res.ForwardSteps, job.last.Steps)
				}
			}
		}
	}
	if proved == 0 {
		t.Fatal("no RHS query proved on the recursive fixture")
	}
}
