package driver

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/nullness"
	"tracer/internal/rhs"
	"tracer/internal/typestate"
)

// GenQuery is the client-independent view of one generated query: the layers
// above the driver (server, bench, warm) address queries by ID (positional,
// human-readable) or Key (position-independent, warm-store identity) and
// never need the client-specific payload.
type GenQuery struct {
	ID  string
	Key string
}

// ClientSpec describes one parametric analysis client to every layer above
// the driver. Adding a client means implementing the client.Analysis
// contract and appending one entry here.
type ClientSpec struct {
	// Name is the wire name of the client ("typestate", "escape",
	// "nullness"); the warm store's Client values coincide with it.
	Name string
	// BenchName is the display name the bench tables print ("type-state").
	BenchName string

	// Queries lists the client's generated queries for a program, in the
	// same deterministic order as the typed query generators.
	Queries func(p *Program) []GenQuery
	// Job builds the core.Problem for query index i (into Queries' order):
	// the job of a one-query batch on the inlined CFG. Like every problem
	// built from p, it shares the program's literal universe and WP caches
	// for the client.
	Job func(p *Program, i, k int) core.Problem
	// RHSJob builds the same query's problem on the supergraph: Job's
	// backward half and caches, with the RHS engine's forward pass at the
	// query's supergraph point; noDelta selects the cold forward executor.
	// It is the only job a program loaded with LoadRHS can build.
	RHSJob func(p *Program, i, k int, noDelta bool) core.Problem
	// Batch builds the batch problem over the query indices idx.
	Batch func(p *Program, idx []int, k int) Batch
	// ParamNames lists the client's parameter universe in parameter-index
	// order; the warm store names stored clauses with it.
	ParamNames func(p *Program) []string
	// WarmConfExtra returns the client-specific suffix of the warm store's
	// config signature ("" when the client has no whole-program knob
	// beyond k).
	WarmConfExtra func(p *Program) string
}

// typed holds the constructors of one client over its typed queries Qy,
// from which spec derives the index-addressed registry entry: rhs wraps a
// job of the client's batch as an RHSJob (rhsJob instantiated at the
// client's types).
type typed[Qy interface {
	gen() GenQuery
	loc() Loc
}] struct {
	queries func(*Program) []Qy
	batch   func(*Program, []Qy, int) Batch
	rhs     func(*rhs.Graph, []rhs.Point, core.Problem, bool) core.Problem
}

func (t typed[Qy]) spec(s ClientSpec) *ClientSpec {
	s.Queries = func(p *Program) []GenQuery {
		qs := t.queries(p)
		out := make([]GenQuery, len(qs))
		for i, q := range qs {
			out[i] = q.gen()
		}
		return out
	}
	batch := func(p *Program, idx []int, k int) Batch {
		all := t.queries(p)
		qs := make([]Qy, 0, len(idx))
		for _, i := range idx {
			qs = append(qs, all[i])
		}
		return t.batch(p, qs, k)
	}
	s.Batch = batch
	s.Job = func(p *Program, i, k int) core.Problem { return batch(p, []int{i}, k).Job(0, false) }
	s.RHSJob = func(p *Program, i, k int, noDelta bool) core.Problem {
		pt := t.queries(p)[i].loc().Point
		return t.rhs(p.SP.G, []rhs.Point{pt}, batch(p, []int{i}, k).Job(0, false), noDelta)
	}
	return &s
}

func noConfExtra(*Program) string { return "" }

// clientSpecs is the registry, in stable presentation order.
var clientSpecs = []*ClientSpec{
	typed[TSQuery]{
		queries: (*Program).TypestateQueries,
		batch:   typestateBatch,
		rhs:     rhsJob[typestate.State, typestate.Query, *typestate.Analysis],
	}.spec(ClientSpec{
		Name:       "typestate",
		BenchName:  "type-state",
		ParamNames: func(p *Program) []string { return p.Vars },
		// The stress property's method list is whole-program state for the
		// type-state client: an edit that introduces a new called method name
		// changes the meaning of every stored entry.
		WarmConfExtra: func(p *Program) string {
			return fmt.Sprintf("|stress=%08x", fnv32String(strings.Join(p.StressMethods(), ",")))
		},
	}),
	typed[AccessQuery]{
		queries: (*Program).EscapeQueries,
		batch:   escapeBatch,
		rhs:     rhsJob[escape.State, escape.Query, *escape.Analysis],
	}.spec(ClientSpec{
		Name:          "escape",
		BenchName:     "thread-escape",
		ParamNames:    func(p *Program) []string { return p.Sites },
		WarmConfExtra: noConfExtra,
	}),
	typed[AccessQuery]{
		queries: (*Program).NullnessQueries,
		batch:   nullnessBatch,
		rhs:     rhsJob[nullness.State, nullness.Query, *nullness.Analysis],
	}.spec(ClientSpec{
		Name:      "nullness",
		BenchName: "null-deref",
		// Cell order matches nullness.Analysis parameter indices: locals
		// first (sorted), then field cells with the "." prefix.
		ParamNames: func(p *Program) []string {
			out := make([]string, 0, len(p.Locals)+len(p.Fields))
			out = append(out, p.Locals...)
			for _, f := range p.Fields {
				out = append(out, "."+f)
			}
			return out
		},
		WarmConfExtra: noConfExtra,
	}),
}

// Clients returns the registered client specs in stable order. The slice is
// shared; callers must not mutate it.
func Clients() []*ClientSpec { return clientSpecs }

// ClientByName resolves a wire name, or nil when unknown.
func ClientByName(name string) *ClientSpec {
	for _, c := range clientSpecs {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ClientNames lists the registered wire names, sorted — for error messages.
func ClientNames() []string {
	out := make([]string, 0, len(clientSpecs))
	for _, c := range clientSpecs {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

// fnv32String is 32-bit FNV-1a, matching the warm store's hash so config
// signatures stay byte-identical with snapshots written before the registry.
func fnv32String(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}
