package driver

import (
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/nullness"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// Batch is one client's batch problem over a list of generated queries. Its
// constructor names the part of the program each query's analysis tracks,
// which states the client's cache-sharing policy once (see client.Batch):
// the literal universe is shared client-wide, and the weakest-precondition
// cache among the queries of one part (all of them for a query-independent
// client, the queries tracking one site for type-state). The caches are the
// program's, so every batch and job built from one Program shares them
// under that policy, and Job's standalone single-query problems share
// exactly what the batch shares.
type Batch interface {
	core.BatchProblem
	// Job builds a fresh single-query problem for query q; noDelta selects
	// the cold forward executor.
	Job(q int, noDelta bool) core.Problem
}

// typestateBatch builds the type-state batch over the given queries. Each
// query's part is the allocation site it tracks, so queries tracking the
// same site share a forward solve.
func typestateBatch(p *Program, queries []TSQuery, k int) Batch {
	prop := typestate.StressProperty(p.stressMethods)
	want := uset.Bits(0).Add(prop.Init)
	qs := make([]typestate.Query, len(queries))
	sites := make([]string, len(queries))
	for i, q := range queries {
		qs[i] = typestate.Query{Nodes: q.Nodes, Want: want}
		sites[i] = q.Site
	}
	fresh := func(site string) *typestate.Analysis { return p.siteAnalysis(prop, site) }
	return client.NewBatch(p.cfg(), fresh, qs, sites, k, p.tsCaches)
}

// escapeBatch builds the thread-escape batch over the given queries. The
// escape analysis is query-independent, so a group's queries share one
// forward run (see client.Batch).
func escapeBatch(p *Program, queries []AccessQuery, k int) Batch {
	qs := make([]escape.Query, len(queries))
	for i, q := range queries {
		qs[i] = escape.Query{Nodes: q.Nodes, V: q.Var}
	}
	return client.NewBatch(p.cfg(), p.escapeAnalysis, qs, nil, k, p.escCaches)
}

// nullnessBatch builds the null-dereference batch over the given queries;
// like escape, the nullness analysis is query-independent.
func nullnessBatch(p *Program, queries []AccessQuery, k int) Batch {
	qs := make([]nullness.Query, len(queries))
	for i, q := range queries {
		qs[i] = nullness.Query{Nodes: q.Nodes, V: q.Var}
	}
	return client.NewBatch(p.cfg(), p.nullnessAnalysis, qs, nil, k, p.nullCaches)
}
