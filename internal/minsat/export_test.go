package minsat

import "tracer/internal/uset"

// DiagramNodes reports the size of s's node arena, terminals included; 0
// before the first Minimum.
func DiagramNodes(s *Solver) int {
	if s.bdd == nil {
		return 0
	}
	return len(s.bdd.nodes)
}

// Reference is the test-only reference engine of differential_test.go over
// its own clause store: an exact branch-and-bound search that answers each
// call cold and shares no code with the diagram.
type Reference = refSolver

// NewReference returns a reference solver over variables 0..n-1.
var NewReference = newRefSolver

// Block adds the blocking clause of the cube (pos, neg), as Solver.Block.
func (r *refSolver) Block(pos, neg uset.Set) { r.s.Block(pos, neg) }

// Minimum returns the lex-least minimum model, or ok=false when UNSAT.
func (r *refSolver) Minimum() (uset.Set, bool) { return r.minimum(nil) }
