// Package tracer is a from-scratch Go reproduction of
//
//	Xin Zhang, Mayur Naik, Hongseok Yang.
//	Finding Optimum Abstractions in Parametric Dataflow Analysis.
//	PLDI 2013.
//
// Given a dataflow analysis that is parametric in its abstraction and a
// query, TRACER either finds the cheapest abstraction in the exponential
// family that proves the query or shows no abstraction in the family can.
// It alternates a forward client analysis with a backward meta-analysis
// that generalizes each counterexample into a blocking clause over the
// abstraction parameters; a minimum-cost SAT query picks the next
// abstraction to try.
//
// The implementation lives under internal/, layered bottom-up:
//
//   - uset, intern: immutable sets, bitsets, interning tables
//   - lang: the structured regular language of §3.1 (atoms, traces, CFGs)
//   - ir, pointsto: a Java-like mini-IR front end with 0-CFA points-to
//   - dataflow, rhs: the forward solvers — disjunctive with provenance
//     (Fig 3), and summary-based RHS tabulation for recursive call graphs
//   - formula, meta: boolean formulas with drop_k under-approximation
//     (§4.1) and the backward meta-analysis driver B[t] (Fig 7)
//   - typestate, escape: the two client analyses (Figs 4, 5, 9–11)
//   - minsat: exact minimum-cost SAT (Alg 1 line 8)
//   - core: TRACER (Algorithm 1) and the §6 multi-query grouping driver
//   - driver, explain: front-end pipelines, §6 query generation, and
//     Fig 1/6-style narration
//   - bench: the synthetic benchmark suite and experiment harness
//   - obs: the observability layer — structured events (NDJSON), counters,
//     gauges, and timers threaded through core, minsat, rhs, and bench;
//     a no-op by default. The counter vocabulary is defined (and documented)
//     on the constants in internal/obs: minsat.search_nodes and
//     minsat.incremental_reuse for the incremental min-cost solver,
//     formula.subsumption_checks / formula.sig_filtered / formula.sig_skips
//     for the signature-screened kernel scans, and
//     meta.wp_formula_memo_hits/_misses for the whole-formula WP memo, and
//     forward.delta_resumes/_reused/_invalidated for the delta-incremental
//     forward engines; README.md has the full reference table
//
// Three commands sit on top. cmd/tracer answers the queries of one
// mini-IR program (-engine inline|rhs, -auto, -explain, plus -trace for
// an NDJSON event transcript, -metrics for aggregate counters, and
// -cpuprofile/-memprofile for pprof capture). cmd/paperbench regenerates
// every table and figure of the paper's evaluation. cmd/benchgen emits
// the synthetic suite as .tir files. The repository's benchmark,
// cmd/tracerbench, is a module of its own: it measures four workloads
// under a step quota and checks every verdict against a golden table.
//
// See README.md for a tour, ARCHITECTURE.md for the package map and the
// data flow of Algorithm 1, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. bench_test.go in this
// directory regenerates every table and figure as testing.B benchmarks;
// `make check` is the tier-1 gate.
package tracer
