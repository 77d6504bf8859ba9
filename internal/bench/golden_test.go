package bench

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/uset"
)

// goldenPath is cmd/tracerbench's verdict table: one row per query of the
// suite and of every hedc edit-chain step, written only when every solving
// path agreed on every row.
const goldenPath = "../../cmd/tracerbench/golden/verdicts.tsv.gz"

// readGolden maps "program\tclient\tquery key" to the row's verdict,
// "status\tcost\tabstraction", skipping the edit-chain rows (program
// hedc+eN), which are not suite queries.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, "\t", 4)
		if len(f) != 4 {
			t.Fatalf("golden row %q: want 6 tab-separated fields", line)
		}
		if strings.Contains(f[0], "+e") {
			continue
		}
		rows[strings.Join(f[:3], "\t")] = f[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestVerdictsMatchGolden solves every suite query through the harness at
// DefaultRunOptions, the settings of paperbench's tables, once per query and
// once through a batch of 4 workers, and requires each verdict (status,
// cost and the abstraction's sorted parameter names) to equal its row of
// cmd/tracerbench's golden table. Tier 1 runs it on tsp; SOLVE_DIFF_SUITE=all
// runs it on all seven programs (make fuzz).
func TestVerdictsMatchGolden(t *testing.T) {
	golden := readGolden(t)
	progs := Suite()[:1] // tsp
	if os.Getenv("SOLVE_DIFF_SUITE") == "all" {
		progs = Suite()
	}
	batchOpts := DefaultRunOptions()
	batchOpts.BatchWorkers = 4
	for _, c := range progs {
		b := MustLoad(c)
		for _, spec := range driver.Clients() {
			r, err := Run(b, Client(spec.BenchName), DefaultRunOptions())
			if err != nil {
				t.Fatal(err)
			}
			br, err := RunBatch(b, Client(spec.BenchName), batchOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(br.Results) != len(r.Outcomes) {
				t.Fatalf("%s %s: batch of 4 workers resolved %d queries, per-query %d", c.Name, spec.Name, len(br.Results), len(r.Outcomes))
			}
			queries, params := spec.Queries(b.Prog), spec.ParamNames(b.Prog)
			verdict := func(s core.Status, abs uset.Set) string {
				var names []string
				if s == core.Proved {
					for _, p := range abs.Elems() {
						names = append(names, params[p])
					}
				}
				sort.Strings(names)
				return fmt.Sprintf("%s\t%d\t%s", s, len(names), strings.Join(names, ","))
			}
			for i, o := range r.Outcomes {
				key := c.Name + "\t" + spec.Name + "\t" + queries[i].Key
				want, ok := golden[key]
				if !ok {
					t.Errorf("%s %s %s: no golden row", c.Name, spec.Name, o.ID)
					continue
				}
				delete(golden, key)
				if got := verdict(o.Status, o.Abstraction); got != want {
					t.Errorf("%s %s %s: verdict %q, golden %q", c.Name, spec.Name, o.ID, got, want)
				}
				if got := verdict(br.Results[i].Status, br.Results[i].Abstraction); got != want {
					t.Errorf("%s %s %s: batch of 4 workers: verdict %q, golden %q", c.Name, spec.Name, o.ID, got, want)
				}
			}
		}
		for key := range golden {
			if strings.HasPrefix(key, c.Name+"\t") {
				t.Errorf("golden row %q: no such query", key)
			}
		}
	}
}
