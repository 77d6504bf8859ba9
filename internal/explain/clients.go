package explain

import (
	"fmt"
	"io"
	"strings"

	"tracer/internal/client"
	"tracer/internal/escape"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// forJob narrates a client job: the forward and backward hooks come from
// the job, the renderings from h.
func forJob[D comparable, Q client.Query, A client.Analysis[D, Q]](job *client.Job[D, Q, A], w io.Writer, h Hooks[D]) *Problem[D] {
	h.Initial, h.Transfer, h.Client = job.A.Initial(), job.A.Transfer, job.Client
	h.Post, h.Cubes = job.A.NotQ(job.Q), job.Cubes
	return New[D](job, w, h)
}

// ForTypestate narrates a type-state job.
func ForTypestate(job *typestate.Job, w io.Writer) *Problem[typestate.State] {
	a := job.A
	return forJob(job, w, Hooks[typestate.State]{
		FormatState: a.Format,
		FormatAbstraction: func(p uset.Set) string {
			names := make([]string, 0, p.Len())
			for _, v := range p.Elems() {
				names = append(names, a.Vars.Value(v))
			}
			return "{" + strings.Join(names, ", ") + "}"
		},
		DescribeCube: func(c coreCube) string {
			out := "every p"
			for _, v := range c.Pos.Elems() {
				out += fmt.Sprintf(" with %s∈p", a.Vars.Value(v))
			}
			for _, v := range c.Neg.Elems() {
				out += fmt.Sprintf(" with %s∉p", a.Vars.Value(v))
			}
			return out
		},
	})
}

// ForEscape narrates a thread-escape job.
func ForEscape(job *escape.Job, w io.Writer) *Problem[escape.State] {
	a := job.A
	return forJob(job, w, Hooks[escape.State]{
		FormatState: a.Format,
		FormatAbstraction: func(p uset.Set) string {
			parts := make([]string, 0, a.Sites.Len())
			for i := 0; i < a.Sites.Len(); i++ {
				o := "E"
				if p.Has(i) {
					o = "L"
				}
				parts = append(parts, a.Sites.Value(i)+"↦"+o)
			}
			return "[" + strings.Join(parts, ", ") + "]"
		},
		DescribeCube: func(c coreCube) string {
			out := "every p"
			for _, h := range c.Pos.Elems() {
				out += fmt.Sprintf(" with %s↦L", a.Sites.Value(h))
			}
			for _, h := range c.Neg.Elems() {
				out += fmt.Sprintf(" with %s↦E", a.Sites.Value(h))
			}
			return out
		},
	})
}
