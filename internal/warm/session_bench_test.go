package warm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tracer/internal/driver"
	"tracer/internal/ir"
)

// writeSyntheticSnapshots fills dir with n snapshots of p for conf, none an
// exact match: snapshot i claims a Whole fingerprint of its own and a
// different body for 1 + i%len(methods) methods. Each holds queries entries
// of clausesPer clauses over real parameter names, with guards (support,
// environment hash) valid for p.
func writeSyntheticSnapshots(b *testing.B, dir string, p *driver.Program, conf Config, n, queries, clausesPer int) {
	b.Helper()
	st := Open(dir, nil)
	s := st.Session(p, conf)
	fp := ir.Fingerprint(p.IR)
	var methods []string
	for name := range fp.Methods {
		methods = append(methods, name)
	}
	sort.Strings(methods)
	rng := rand.New(rand.NewSource(1))
	pick := func() string { return s.names[rng.Intn(len(s.names))] }
	entries := map[string]*queryEntry{}
	for q := 0; q < queries; q++ {
		e := &queryEntry{Status: "proved", Iterations: 3, MaxIters: conf.MaxIters}
		for c := 0; c < clausesPer; c++ {
			support := []string{methods[rng.Intn(len(methods))]}
			e.Clauses = append(e.Clauses, storedClause{
				Pos:     []string{pick(), pick()},
				Neg:     []string{pick()},
				Support: support,
				Env:     hex64(p.EnvHash(support)),
			})
		}
		entries[fmt.Sprintf("%s:q%d", conf.Client, q)] = e
	}
	for i := 0; i < n; i++ {
		hm := make(map[string]string, len(fp.Methods))
		for name, v := range fp.Methods {
			hm[name] = hex64(v)
		}
		for _, name := range methods[:1+i%len(methods)] {
			hm[name] = hex64(fp.Methods[name] ^ uint64(i+1))
		}
		h := &snapshotHeader{
			Version: Version,
			Whole:   hex64(fp.Whole ^ uint64(i+1)),
			Shape:   hex64(fp.Shape),
			Methods: hm,
			Client:  string(conf.Client),
			Conf:    s.confSig,
		}
		if err := st.writeSnapshot(h, entries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionOpen times one Session open on a store laid out like the
// edit chain's: 16 snapshots of the session's own client and configuration
// (about 200 KB each) beside 16 of each other client.
func BenchmarkSessionOpen(b *testing.B) {
	p, err := driver.Load(progBase)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	conf := tsConf(100)
	writeSyntheticSnapshots(b, dir, p, conf, maxSnapshots, 200, 8)
	writeSyntheticSnapshots(b, dir, p, Config{Client: Escape, K: 2, MaxIters: 100}, maxSnapshots, 100, 4)
	writeSyntheticSnapshots(b, dir, p, Config{Client: Nullness, K: 2, MaxIters: 100}, maxSnapshots, 100, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := Open(dir, nil).Session(p, conf); len(s.entries) == 0 {
			b.Fatal("nearest snapshot not loaded")
		}
	}
}
