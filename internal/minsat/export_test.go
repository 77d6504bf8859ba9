package minsat

// NewSearch returns a solver over variables 0..n-1 that answers from the
// clause-mask search alone, as a solver does after its diagram passed the
// node cap. Its clones search too.
func NewSearch(n int) *Solver {
	s := New(n)
	s.dropped = true
	return s
}

// FellBack reports whether s dropped its diagram.
func FellBack(s *Solver) bool { return s.dropped }

// DiagramNodes reports the size of s's node arena, terminals included; 0
// before the first Minimum and after a fallback.
func DiagramNodes(s *Solver) int {
	if s.bdd == nil {
		return 0
	}
	return len(s.bdd.nodes)
}
