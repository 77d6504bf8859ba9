package oracle

import (
	"fmt"
	"math/rand"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/oracle/gen"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// The generated problems draw from FIXED vocabularies, independent of the
// program text: parameter indices stay stable when the shrinker deletes
// atoms, and query subjects (the tracked site, the queried local) are
// always interned. Padding variants append fresh never-referenced names.
var (
	tsVars      = []string{"w", "x", "y", "z"}
	tsSites     = []string{"h", "g"} // h is the tracked site
	tsTracked   = "h"
	escLocals   = []string{"u", "v", "w"}
	escFields   = []string{"f", "g"}
	escSites    = []string{"h1", "h2", "h3"}
	sharedOther = struct {
		Fields  []string
		Globals []string
	}{Fields: []string{"f"}, Globals: []string{"G"}}
)

// tsProps lists the generated type-state properties by name; the name is
// stored in the case (rather than the *Property) so cases print and replay.
var tsProps = []string{"file", "socket", "iterator"}

func tsProp(name string) *typestate.Property {
	switch name {
	case "file":
		return typestate.FileProperty()
	case "socket":
		return typestate.SocketProperty()
	case "iterator":
		return typestate.IteratorProperty()
	}
	panic("oracle: unknown typestate property " + name)
}

// kChoices are the beam widths a case draws from (k of §4.1; 0 disables
// under-approximation).
var kChoices = []int{0, 1, 2, 5}

// TSCase is one generated type-state problem: a program over the fixed
// vocabulary, the query's wanted state set, and the beam width. Pad appends
// that many never-referenced variables to the parameter universe (the
// monotone-padding metamorphic variant).
type TSCase struct {
	Prop string
	Prog lang.Prog
	Want uset.Bits
	K    int
	Pad  int
}

func (c TSCase) String() string {
	return fmt.Sprintf("typestate prop=%s want=%v k=%d pad=%d prog: %s",
		c.Prop, c.Want.Elems(), c.K, c.Pad, c.Prog)
}

// vars returns the case's parameter universe.
func (c TSCase) vars() []string {
	vs := tsVars
	for i := 0; i < c.Pad; i++ {
		vs = append(vs[:len(vs):len(vs)], fmt.Sprintf("pad%d", i))
	}
	return vs
}

// Job builds a fresh core.Problem for the case. Every call returns an
// independent instance (interning mutates an Analysis, so instances must
// not be shared between a truth enumeration and a solve).
func (c TSCase) Job() *typestate.Job {
	g := lang.BuildCFG(c.Prog)
	return &typestate.Job{
		A: c.analysis(), G: g,
		Q: typestate.Query{Nodes: []int{g.Exit}, Want: c.Want},
		K: c.K,
	}
}

func (c TSCase) analysis() *typestate.Analysis {
	return typestate.New(tsProp(c.Prop), tsTracked, c.vars())
}

func (c TSCase) problem(noDelta bool) core.Problem {
	j := c.Job()
	j.NoDelta = noDelta
	return j
}

func (c TSCase) prog() lang.Prog           { return c.Prog }
func (c TSCase) withProg(p lang.Prog) Case { c.Prog = p; return c }

func (c TSCase) padded() Case { c.Pad = 2; return c }

// renamed consistently renames the variables; the minimum cost |p| is
// permutation-invariant.
func (c TSCase) renamed() (Case, string) {
	c.Prog = gen.Rename(c.Prog, rotation(tsVars), nil)
	return c, "variable permutation"
}

// variants asks for three Want sets over each site of the vocabulary: the
// queries tracking one site share a forward solve, and a run of the batch
// solves each site on the first check that needs it.
func (c TSCase) variants() ([]core.Problem, core.BatchProblem) {
	prop := tsProp(c.Prop)
	full := uset.Bits(1<<len(prop.States) - 1)
	j := c.Job()
	var qs []typestate.Query
	var sites []string
	for _, h := range tsSites {
		for _, w := range []uset.Bits{c.Want, full, uset.Bits(0).Add(prop.Init)} {
			qs = append(qs, typestate.Query{Nodes: j.Q.Nodes, Want: w})
			sites = append(sites, h)
		}
	}
	fresh := func(site string) *typestate.Analysis { return typestate.New(prop, site, c.vars()) }
	return variants(j, fresh, qs, sites)
}

// TSPool returns the atom pool the type-state cases draw from.
func TSPool() []lang.Atom {
	return gen.Pool(gen.Universe{
		Vars:    tsVars,
		Sites:   tsSites,
		Fields:  sharedOther.Fields,
		Globals: sharedOther.Globals,
		Methods: tsMethods(),
	})
}

// tsMethods is the union of all generated properties' methods, sorted; a
// program may invoke methods its property ignores (they are identity).
func tsMethods() []string {
	return []string{"bind", "close", "connect", "hasNext", "next", "open", "send"}
}

// RandomTSCase draws a case from the rng. The same rng sequence always
// yields the same case.
func RandomTSCase(rng *rand.Rand) TSCase {
	prop := tsProps[rng.Intn(len(tsProps))]
	ns := len(tsProp(prop).States)
	want := uset.Bits(1 + rng.Intn(1<<ns-1)) // any nonempty subset
	return TSCase{
		Prop: prop,
		Prog: gen.Program(rng, TSPool(), gen.DefaultConfig(3+rng.Intn(8))),
		Want: want,
		K:    kChoices[rng.Intn(len(kChoices))],
	}
}

// EscCase is one generated thread-escape problem: a program over the fixed
// vocabulary and the queried local. Pad appends never-referenced allocation
// sites to the parameter universe.
type EscCase struct {
	Prog lang.Prog
	V    string
	K    int
	Pad  int
}

func (c EscCase) String() string {
	return fmt.Sprintf("escape v=%s k=%d pad=%d prog: %s", c.V, c.K, c.Pad, c.Prog)
}

func (c EscCase) sites() []string {
	hs := escSites
	for i := 0; i < c.Pad; i++ {
		hs = append(hs[:len(hs):len(hs)], fmt.Sprintf("hpad%d", i))
	}
	return hs
}

// Job builds a fresh core.Problem for the case (see TSCase.Job).
func (c EscCase) Job() *escape.Job {
	g := lang.BuildCFG(c.Prog)
	return &escape.Job{
		A: c.analysis(), G: g,
		Q: escape.Query{Nodes: []int{g.Exit}, V: c.V},
		K: c.K,
	}
}

func (c EscCase) analysis() *escape.Analysis { return escape.New(escLocals, escFields, c.sites()) }

func (c EscCase) problem(noDelta bool) core.Problem {
	j := c.Job()
	j.NoDelta = noDelta
	return j
}

func (c EscCase) prog() lang.Prog           { return c.Prog }
func (c EscCase) withProg(p lang.Prog) Case { c.Prog = p; return c }

func (c EscCase) padded() Case { c.Pad = 2; return c }

// renamed permutes both name spaces: locals and sites.
func (c EscCase) renamed() (Case, string) {
	vperm, hperm := rotation(escLocals), rotation(escSites)
	c.Prog = gen.Rename(c.Prog, vperm, hperm)
	c.V = vperm[c.V]
	return c, "local/site permutation"
}

// variants asks one query per local; the escape analysis is
// query-independent, so one forward solve serves them all.
func (c EscCase) variants() ([]core.Problem, core.BatchProblem) {
	j := c.Job()
	qs := make([]escape.Query, len(escLocals))
	for i, v := range escLocals {
		qs[i] = escape.Query{Nodes: j.Q.Nodes, V: v}
	}
	return variants(j, func(string) *escape.Analysis { return c.analysis() }, qs, nil)
}

// EscPool returns the atom pool the thread-escape cases draw from.
func EscPool() []lang.Atom {
	return gen.Pool(gen.Universe{
		Vars:    escLocals,
		Sites:   escSites,
		Fields:  escFields,
		Globals: sharedOther.Globals,
		Methods: []string{"m"},
	})
}

// RandomEscCase draws a case from the rng.
func RandomEscCase(rng *rand.Rand) EscCase {
	return EscCase{
		Prog: gen.Program(rng, EscPool(), gen.DefaultConfig(3+rng.Intn(8))),
		V:    escLocals[rng.Intn(len(escLocals))],
		K:    kChoices[rng.Intn(len(kChoices))],
	}
}

// NullCase is one generated null-dereference problem: a program over the
// escape client's fixed vocabulary (locals and fields are exactly the
// nullness cell universe) and the queried local. Pad appends
// never-referenced locals to the cell universe.
type NullCase struct {
	Prog lang.Prog
	V    string
	K    int
	Pad  int
}

func (c NullCase) String() string {
	return fmt.Sprintf("nullness v=%s k=%d pad=%d prog: %s", c.V, c.K, c.Pad, c.Prog)
}

func (c NullCase) locals() []string {
	vs := escLocals
	for i := 0; i < c.Pad; i++ {
		vs = append(vs[:len(vs):len(vs)], fmt.Sprintf("pad%d", i))
	}
	return vs
}

// Job builds a fresh core.Problem for the case (see TSCase.Job).
func (c NullCase) Job() *nullness.Job {
	g := lang.BuildCFG(c.Prog)
	return &nullness.Job{
		A: c.analysis(), G: g,
		Q: nullness.Query{Nodes: []int{g.Exit}, V: c.V},
		K: c.K,
	}
}

func (c NullCase) analysis() *nullness.Analysis { return nullness.New(c.locals(), escFields) }

func (c NullCase) problem(noDelta bool) core.Problem {
	j := c.Job()
	j.NoDelta = noDelta
	return j
}

func (c NullCase) prog() lang.Prog           { return c.Prog }
func (c NullCase) withProg(p lang.Prog) Case { c.Prog = p; return c }

func (c NullCase) padded() Case { c.Pad = 2; return c }

// renamed permutes both name spaces the generator renames: locals (the
// tracked cells) and allocation sites (nullness-neutral).
func (c NullCase) renamed() (Case, string) {
	vperm, hperm := rotation(escLocals), rotation(escSites)
	c.Prog = gen.Rename(c.Prog, vperm, hperm)
	c.V = vperm[c.V]
	return c, "local/site permutation"
}

// variants asks one query per local, like the escape case.
func (c NullCase) variants() ([]core.Problem, core.BatchProblem) {
	j := c.Job()
	qs := make([]nullness.Query, len(escLocals))
	for i, v := range escLocals {
		qs[i] = nullness.Query{Nodes: j.Q.Nodes, V: v}
	}
	return variants(j, func(string) *nullness.Analysis { return c.analysis() }, qs, nil)
}

// NullPool returns the atom pool the nullness cases draw from — the escape
// pool: both clients read the same atom structure, so the generator is
// shared unchanged.
func NullPool() []lang.Atom { return EscPool() }

// RandomNullCase draws a case from the rng.
func RandomNullCase(rng *rand.Rand) NullCase {
	return NullCase{
		Prog: gen.Program(rng, NullPool(), gen.DefaultConfig(3+rng.Intn(8))),
		V:    escLocals[rng.Intn(len(escLocals))],
		K:    kChoices[rng.Intn(len(kChoices))],
	}
}

// variants poses the queries qs, tracking parts (nil: one part), on job's
// CFG twice: as solo problems with caches of their own, and as one
// client.Batch whose query i is solo problem i.
func variants[D comparable, Q client.Query, A client.Analysis[D, Q]](job *client.Job[D, Q, A], fresh func(part string) A, qs []Q, parts []string) ([]core.Problem, core.BatchProblem) {
	solo := make([]core.Problem, len(qs))
	for i, q := range qs {
		part := ""
		if parts != nil {
			part = parts[i]
		}
		solo[i] = &client.Job[D, Q, A]{A: fresh(part), G: job.G, Q: q, K: job.K}
	}
	return solo, client.NewBatch(job.G, fresh, qs, parts, job.K, client.NewCaches(job.A.Theory()))
}
