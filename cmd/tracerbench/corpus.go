package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/driver"
)

// Fixed solver settings of every workload. MaxIters decides which queries
// end up exhausted; the step quota is a machine-independent safety cap that
// core.quota_trips pins at zero, so no verdict depends on host speed.
const (
	beamK      = 5
	maxIters   = 100
	stepsQuota = 2_000_000
	// editBench and editSteps size the edit workload's chain of
	// single-statement edits.
	editBench = "hedc"
	editSteps = 40
	// batchWorkers is the worker pool of the batch workload; with the serve
	// workload's two closed-loop clients it keeps every workload within two
	// threads of load.
	batchWorkers = 2
)

// serveBenches are the corpora the serve workload replays: the four smallest
// suite members, whose cheap queries leave the server layers dominant.
var serveBenches = []string{"tsp", "elevator", "hedc", "weblech"}

// program is one loaded input program.
type program struct {
	name string
	src  string
	prog *driver.Program
}

// job is one (program, client) pair: every generated query of one client on
// one program.
type job struct {
	prog *program
	spec *driver.ClientSpec
	keys []string // query keys, in the client's generation order
}

// suiteSources generates the benchmark corpus: the paper-suite stand-ins of
// bench.Suite, in suite order. The corpus does not depend on the run's seed;
// see README.md ("Seed policy").
func suiteSources(names ...string) []*program {
	var out []*program
	for _, cfg := range bench.Suite() {
		if len(names) > 0 && !slices.Contains(names, cfg.Name) {
			continue
		}
		out = append(out, &program{name: cfg.Name, src: bench.Generate(cfg)})
	}
	return out
}

// editSources generates the edit workload's chain: the pristine editBench
// source followed by editSteps successive single-statement edits.
func editSources() []*program {
	for _, cfg := range bench.Suite() {
		if cfg.Name != editBench {
			continue
		}
		chain, _ := bench.EditChain(cfg, editSteps)
		out := make([]*program, len(chain))
		for i, src := range chain {
			out[i] = &program{name: fmt.Sprintf("%s+e%d", editBench, i), src: src}
		}
		return out
	}
	panic("tracerbench: no suite member " + editBench)
}

// load parses and prepares every program.
func load(progs []*program) error {
	for _, p := range progs {
		dp, err := driver.Load(p.src)
		if err != nil {
			return fmt.Errorf("loading %s: %w", p.name, err)
		}
		p.prog = dp
	}
	return nil
}

// jobsOf builds one job per (program, client) with at least one query. It
// also builds one solver problem per job, so lazily built per-program state
// (statement keys, analyses) exists before any timing starts.
func jobsOf(progs []*program) []*job {
	var out []*job
	for _, p := range progs {
		for _, spec := range driver.Clients() {
			qs := spec.Queries(p.prog)
			if len(qs) == 0 {
				continue
			}
			j := &job{prog: p, spec: spec, keys: make([]string, len(qs))}
			for i, q := range qs {
				j.keys[i] = q.Key
			}
			spec.Job(p.prog, 0, beamK)
			out = append(out, j)
		}
	}
	return out
}

// goldenKey names one query of one program in the golden table.
func goldenKey(prog, client, key string) string {
	return prog + "\t" + client + "\t" + key
}

// verdict is the checked outcome of one query: status, and for proved
// queries the cost and the abstraction by parameter name.
type verdict struct {
	status string
	cost   int
	abs    string // sorted parameter names, comma-separated
}

func (v verdict) decided() bool {
	return v.status == core.Proved.String() || v.status == core.Impossible.String()
}

// verdictOf renders a solver Result, naming abstraction parameters with the
// client's parameter universe.
func verdictOf(r core.Result, params []string) verdict {
	v := verdict{status: r.Status.String()}
	if r.Status == core.Proved {
		names := make([]string, 0, r.Abstraction.Len())
		for _, i := range r.Abstraction.Elems() {
			names = append(names, params[i])
		}
		v = namedVerdict(v.status, names)
	}
	return v
}

// namedVerdict builds a verdict from a status and unsorted parameter names.
func namedVerdict(status string, names []string) verdict {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return verdict{status: status, cost: len(sorted), abs: strings.Join(sorted, ",")}
}

// perm returns a permutation of n items fixed by (seed, pass, salt): every
// pass of a run visits the same inputs in another order, and the same seed
// always gives the same orders.
func perm(seed int64, pass, salt, n int) []int {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)*7919 + int64(salt)))
	return r.Perm(n)
}
