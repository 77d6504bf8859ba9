package warm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/ir"
	"tracer/internal/obs"
)

const progBase = `
global g

class Main {
  field f
  method main(this) {
    var a, b, t
    a = new Main @ h1
    b = new Helper @ h2
    t = b.work(a)
    a.ping()
    t.ping()
    a.f = t
  }
  method ping(this) {
    return
  }
}

class Helper {
  method work(this, x) {
    var u
    u = new Main @ h3
    if * {
      u = x
    }
    u.ping()
    return u
  }
}
`

// progEditNeutral edits Helper.work without changing any points-to set: a
// duplicated call to an existing method.
const progEditNeutral = `
global g

class Main {
  field f
  method main(this) {
    var a, b, t
    a = new Main @ h1
    b = new Helper @ h2
    t = b.work(a)
    a.ping()
    t.ping()
    a.f = t
  }
  method ping(this) {
    return
  }
}

class Helper {
  method work(this, x) {
    var u
    u = new Main @ h3
    if * {
      u = x
    }
    u.ping()
    u.ping()
    return u
  }
}
`

// progShape adds a field: a declaration-shape change (cold restart).
const progShape = `
global g

class Main {
  field f, f2
  method main(this) {
    var a, b, t
    a = new Main @ h1
    b = new Helper @ h2
    t = b.work(a)
    a.ping()
    t.ping()
    a.f = t
  }
  method ping(this) {
    return
  }
}

class Helper {
  method work(this, x) {
    var u
    u = new Main @ h3
    if * {
      u = x
    }
    u.ping()
    return u
  }
}
`

func load(t *testing.T, src string) *driver.Program {
	t.Helper()
	p, err := driver.Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

// solveAll resolves every generated query of conf's client through
// Session.Solve and returns the results keyed by the stable query key.
func solveAll(t *testing.T, p *driver.Program, sess *Session, conf Config) map[string]core.Result {
	t.Helper()
	spec := driver.ClientByName(string(conf.Client))
	out := map[string]core.Result{}
	for i, q := range spec.Queries(p) {
		r, err := sess.Solve(q.Key, spec.Job(p, i, conf.K), core.Options{MaxIters: conf.MaxIters})
		if err != nil {
			t.Fatalf("query %s: %v", q.ID, err)
		}
		out[q.Key] = r
	}
	return out
}

func wantSame(t *testing.T, cold, warm map[string]core.Result, context string) {
	t.Helper()
	if len(cold) != len(warm) {
		t.Fatalf("%s: query counts differ: %d vs %d", context, len(cold), len(warm))
	}
	for k, c := range cold {
		w, ok := warm[k]
		if !ok {
			t.Fatalf("%s: missing %s", context, k)
		}
		if w.Status != c.Status || !w.Abstraction.Equal(c.Abstraction) {
			t.Fatalf("%s: %s diverged: warm %v/%v cold %v/%v",
				context, k, w.Status, w.Abstraction, c.Status, c.Abstraction)
		}
	}
}

func tsConf(maxIters int) Config {
	return Config{Client: Typestate, K: 2, MaxIters: maxIters}
}

func TestWarmRoundTrip(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)

	p1 := load(t, progBase)
	st1 := Open(dir, nil)
	s1 := st1.Session(p1, conf)
	if s1.Exact() {
		t.Fatal("fresh store claims exact match")
	}
	cold := solveAll(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	// A separate Open models a process restart.
	p2 := load(t, progBase)
	s2 := Open(dir, nil).Session(p2, conf)
	if !s2.Exact() {
		t.Fatal("identical program did not match exactly")
	}
	warm := solveAll(t, p2, s2, conf)
	wantSame(t, cold, warm, "round-trip")
	for k, w := range warm {
		if w.Iterations > 2 {
			t.Errorf("warm query %s took %d iterations", k, w.Iterations)
		}
	}
}

func TestWarmRoundTripEscape(t *testing.T) {
	dir := t.TempDir()
	conf := Config{Client: Escape, K: 2, MaxIters: 50}
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	cold := solveAll(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	p2 := load(t, progBase)
	s2 := Open(dir, nil).Session(p2, conf)
	warm := solveAll(t, p2, s2, conf)
	wantSame(t, cold, warm, "escape round-trip")
	for k, w := range warm {
		if w.Iterations > 2 {
			t.Errorf("warm query %s took %d iterations", k, w.Iterations)
		}
	}
}

func TestWarmDeltaInvalidation(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	solveAll(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	// Re-solve the edited program warm: the session must not be exact, but
	// surviving clauses must keep results identical to a cold solve of the
	// edited program.
	pEdit := load(t, progEditNeutral)
	sWarm := Open(dir, nil).Session(pEdit, conf)
	if sWarm.Exact() {
		t.Fatal("edited program matched exactly")
	}
	warm := solveAll(t, pEdit, sWarm, conf)

	pEditCold := load(t, progEditNeutral)
	sCold := Open(t.TempDir(), nil).Session(pEditCold, conf)
	cold := solveAll(t, pEditCold, sCold, conf)
	wantSame(t, cold, warm, "delta edit")

	// The pts-neutral edit kills only clauses supported by Helper.work;
	// at least one clause of another method must have survived and seeded.
	survived := 0
	for _, e := range sWarm.entries {
		survived += len(e.Clauses)
	}
	if survived == 0 {
		t.Log("no clauses survived the edit (all traces pass through Helper.work)")
	}
}

func TestWarmShapeChangeGoesCold(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	solveAll(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	p2 := load(t, progShape)
	s2 := Open(dir, nil).Session(p2, conf)
	if s2.Exact() || len(s2.entries) != 0 {
		t.Fatalf("shape change reused state: exact=%v entries=%d", s2.Exact(), len(s2.entries))
	}
}

func TestWarmConfigMismatchGoesCold(t *testing.T) {
	dir := t.TempDir()
	p1 := load(t, progBase)
	conf := Config{Client: Typestate, K: 2, MaxIters: 50}
	s1 := Open(dir, nil).Session(p1, conf)
	solveAll(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	other := Config{Client: Typestate, K: 3, MaxIters: 50}
	s2 := Open(dir, nil).Session(load(t, progBase), other)
	if s2.Exact() || len(s2.entries) != 0 {
		t.Fatal("k mismatch reused state")
	}
}

func TestWarmExhaustedReplay(t *testing.T) {
	dir := t.TempDir()
	// MaxIters 1 exhausts every query needing refinement.
	conf := tsConf(1)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	cold := solveAll(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	exhausted := 0
	for _, r := range cold {
		if r.Status == core.Exhausted {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("test premise broken: nothing exhausted at MaxIters=1")
	}

	s2 := Open(dir, nil).Session(load(t, progBase), conf)
	replayed := 0
	for _, q := range load(t, progBase).TypestateQueries() {
		if r, ok := s2.Replay(q.Key); ok {
			replayed++
			if r.Status != core.Exhausted {
				t.Fatalf("replayed non-exhausted status %v", r.Status)
			}
		}
	}
	if replayed != exhausted {
		t.Fatalf("replayed %d of %d exhausted queries", replayed, exhausted)
	}

	// A different iteration budget must not replay.
	s3 := Open(dir, nil).Session(load(t, progBase), tsConf(2))
	if _, ok := s3.Replay(load(t, progBase).TypestateQueries()[0].Key); ok {
		t.Fatal("replayed across a budget change")
	}
}

// TestWarmTripNotReplayed: a solve cut short by its budget, by a cancelled
// context or by a step quota, is not stored as Exhausted. A later session
// over the same program solves the query again and gets the cold verdict.
func TestWarmTripNotReplayed(t *testing.T) {
	conf := tsConf(50)
	p := load(t, progBase)
	q := p.TypestateQueries()[0]
	job := func() core.Problem { return driver.ClientByName("typestate").Job(p, 0, conf.K) }
	cold, err := core.Solve(job(), core.Options{MaxIters: conf.MaxIters})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != core.Proved {
		t.Fatalf("test premise broken: cold solve of %s is %v, want proved", q.ID, cold.Status)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, opts := range map[string]core.Options{
		"cancelled context": {MaxIters: conf.MaxIters, Context: cancelled},
		"step quota":        {MaxIters: conf.MaxIters, MaxSteps: 1},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := Open(dir, nil).Session(p, conf)
			r, err := core.Solve(job(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != core.Exhausted {
				t.Fatalf("test premise broken: tripped solve is %v, want exhausted", r.Status)
			}
			s1.RecordResult(q.Key, r)
			if err := s1.Save(); err != nil {
				t.Fatalf("save: %v", err)
			}

			p2 := load(t, progBase)
			s2 := Open(dir, nil).Session(p2, conf)
			if r, ok := s2.Replay(q.Key); ok {
				t.Fatalf("replayed %v from a tripped solve", r.Status)
			}
			if w := solveAll(t, p2, s2, conf)[q.Key]; w.Status != cold.Status {
				t.Fatalf("warm solve of %s is %v, want the cold %v", q.ID, w.Status, cold.Status)
			}
		})
	}
}

// TestWarmConcurrentSessionsMerge: two sessions over one program, both
// opened before either saves, each solve a different query. The second Save
// must keep the first one's entry.
func TestWarmConcurrentSessionsMerge(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p := load(t, progBase)
	spec := driver.ClientByName(string(conf.Client))
	queries := spec.Queries(p)
	if len(queries) < 2 {
		t.Fatalf("test premise broken: %d type-state queries, want 2", len(queries))
	}
	st := Open(dir, nil)
	sessions := []*Session{st.Session(p, conf), st.Session(p, conf)}
	for i, s := range sessions {
		if _, err := s.Solve(queries[i].Key, spec.Job(p, i, conf.K), core.Options{MaxIters: conf.MaxIters}); err != nil {
			t.Fatalf("query %s: %v", queries[i].ID, err)
		}
	}
	for _, s := range sessions {
		if err := s.Save(); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	s3 := Open(dir, nil).Session(p, conf)
	for _, q := range queries[:2] {
		if e := s3.entries[q.Key]; e == nil || e.Status == "" {
			t.Fatalf("query %s lost from the store", q.Key)
		}
	}
}

func TestWarmCorruptionFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	cold := solveAll(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(files))
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Truncation: mid-file cut breaks the JSON.
	orig, _ := os.ReadFile(files[0])
	corrupt(files[0], func(b []byte) []byte { return b[:len(b)/2] })
	s2 := Open(dir, nil).Session(load(t, progBase), conf)
	if s2.Exact() || len(s2.entries) != 0 {
		t.Fatal("truncated snapshot was trusted")
	}
	warm := solveAll(t, load(t, progBase), s2, conf)
	wantSame(t, cold, warm, "truncated store")

	// Bit flip inside the JSON body.
	corrupt(files[0], func([]byte) []byte {
		b := append([]byte(nil), orig...)
		b[len(b)/3] ^= 0x40
		return b
	})
	s3 := Open(dir, nil).Session(load(t, progBase), conf)
	warm3 := solveAll(t, load(t, progBase), s3, conf)
	wantSame(t, cold, warm3, "bit-flipped store")

	// Version mismatch: valid JSON, wrong schema version.
	corrupt(files[0], func([]byte) []byte {
		return []byte(strings.Replace(string(orig), fmt.Sprintf(`"version": %d`, Version), `"version": 99`, 1))
	})
	s4 := Open(dir, nil).Session(load(t, progBase), conf)
	if s4.Exact() || len(s4.entries) != 0 {
		t.Fatal("version-mismatched snapshot was trusted")
	}
}

// saveOne solves progBase cold into a fresh store and returns the store
// directory, the cold results, and the one snapshot file written.
func saveOne(t *testing.T, conf Config) (string, map[string]core.Result, string) {
	t.Helper()
	dir := t.TempDir()
	p := load(t, progBase)
	s := Open(dir, nil).Session(p, conf)
	cold := solveAll(t, p, s, conf)
	if err := s.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(files))
	}
	return dir, cold, files[0]
}

// headerLen returns the byte length of a snapshot file's header value.
func headerLen(t *testing.T, name string) int {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("header: %v", err)
	}
	return int(dec.InputOffset())
}

func TestWarmCorruptBodyFallsBackToNextNearest(t *testing.T) {
	conf := tsConf(50)
	dir, cold, exactFile := saveOne(t, conf)

	// A second snapshot of the same program under another Whole fingerprint:
	// a non-exact candidate with no touched method, so its clauses survive.
	h, ok := readHeader(exactFile)
	if !ok {
		t.Fatal("saved header unreadable")
	}
	queries, ok := readQueries(exactFile)
	if !ok {
		t.Fatal("saved queries unreadable")
	}
	near := *h
	near.Whole = hex64(ir.Fingerprint(load(t, progBase).IR).Whole ^ 1)
	if err := Open(dir, nil).writeSnapshot(&near, queries); err != nil {
		t.Fatalf("write: %v", err)
	}

	agg := obs.NewAgg()
	if s := Open(dir, agg).Session(load(t, progBase), conf); !s.Exact() {
		t.Fatal("intact exact snapshot not chosen")
	}
	if n := agg.Counter(obs.WarmSnapshots); n != 2 {
		t.Fatalf("warm.snapshots = %d, want 2", n)
	}

	// Truncate the exact snapshot's body but not its header.
	data, err := os.ReadFile(exactFile)
	if err != nil {
		t.Fatal(err)
	}
	hl := headerLen(t, exactFile)
	if err := os.WriteFile(exactFile, data[:hl+(len(data)-hl)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	agg = obs.NewAgg()
	s := Open(dir, agg).Session(load(t, progBase), conf)
	if s.Exact() {
		t.Fatal("truncated exact snapshot was trusted")
	}
	if n := agg.Counter(obs.WarmEntriesCorrupt); n != 1 {
		t.Fatalf("warm.entries_corrupt = %d, want 1", n)
	}
	if len(s.entries) == 0 || agg.Counter(obs.WarmClausesLoaded) == 0 {
		t.Fatal("next-nearest snapshot was not loaded")
	}
	warm := solveAll(t, load(t, progBase), s, conf)
	wantSame(t, cold, warm, "fallback to next-nearest")
}

func TestWarmOtherClientsFilesNeverOpened(t *testing.T) {
	conf := tsConf(50)
	dir, _, _ := saveOne(t, conf)
	p := load(t, progBase)
	whole := hex64(ir.Fingerprint(p.IR).Whole)
	st := Open(dir, nil)
	other := Config{Client: Typestate, K: 3, MaxIters: 50}
	for _, name := range []string{
		st.snapshotPath(whole, string(Escape), confSignature(p, Config{Client: Escape, K: 2})),
		st.snapshotPath(whole, string(Nullness), confSignature(p, Config{Client: Nullness, K: 2})),
		st.snapshotPath(whole, string(Typestate), confSignature(p, other)),
	} {
		if err := os.WriteFile(name, []byte(`{"whole"`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	agg := obs.NewAgg()
	s := Open(dir, agg).Session(p, conf)
	if !s.Exact() {
		t.Fatal("own snapshot not loaded")
	}
	if n := agg.Counter(obs.WarmEntriesCorrupt); n != 0 {
		t.Fatalf("warm.entries_corrupt = %d, want 0: another client's file was opened", n)
	}
	if n := agg.Counter(obs.WarmSnapshots); n != 1 {
		t.Fatalf("warm.snapshots = %d, want 1", n)
	}
}

// TestWarmV1SnapshotIgnored: a snapshot of an older schema is never
// trusted, neither the one-object version-1 layout nor a version-2 file,
// whose Exhausted verdicts a deadline may have decided.
func TestWarmV1SnapshotIgnored(t *testing.T) {
	cases := []struct {
		name      string
		conf      Config
		exhausted bool // the snapshot must hold an Exhausted verdict
		encode    func(h *snapshotHeader, queries map[string]*queryEntry) ([]byte, error)
	}{
		{"v1 layout", tsConf(50), false, func(h *snapshotHeader, queries map[string]*queryEntry) ([]byte, error) {
			// One object holding the header fields and the queries.
			return json.MarshalIndent(map[string]any{
				"version": 1, "whole": h.Whole, "shape": h.Shape, "methods": h.Methods,
				"client": h.Client, "conf": h.Conf, "queries": queries,
			}, "", " ")
		}},
		// MaxIters 1 exhausts every query needing refinement.
		{"v2 exhausted verdict", tsConf(1), true, func(h *snapshotHeader, queries map[string]*queryEntry) ([]byte, error) {
			v2 := *h
			v2.Version = 2
			header, err := json.Marshal(v2)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(queries)
			return append(append(header, '\n'), body...), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, cold, file := saveOne(t, tc.conf)
			exhausted := false
			for _, r := range cold {
				exhausted = exhausted || r.Status == core.Exhausted
			}
			if tc.exhausted && !exhausted {
				t.Fatal("test premise broken: nothing exhausted")
			}
			h, ok := readHeader(file)
			if !ok {
				t.Fatal("saved header unreadable")
			}
			queries, ok := readQueries(file)
			if !ok {
				t.Fatal("saved queries unreadable")
			}
			data, err := tc.encode(h, queries)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
			agg := obs.NewAgg()
			s := Open(dir, agg).Session(load(t, progBase), tc.conf)
			if s.Exact() || len(s.entries) != 0 {
				t.Fatalf("old snapshot was trusted: exact=%v entries=%d", s.Exact(), len(s.entries))
			}
			if n := agg.Counter(obs.WarmEntriesCorrupt); n != 1 {
				t.Fatalf("warm.entries_corrupt = %d, want 1", n)
			}
			for key, r := range cold {
				if _, ok := s.Replay(key); ok {
					t.Fatalf("replayed the stored %v verdict of %s", r.Status, key)
				}
			}
		})
	}
}

func TestWarmDisabledStore(t *testing.T) {
	conf := tsConf(50)
	p := load(t, progBase)
	s := Open("", nil).Session(p, conf)
	cold := solveAll(t, p, s, conf)
	if err := s.Save(); err != nil {
		t.Fatalf("disabled save: %v", err)
	}
	if len(cold) == 0 {
		t.Fatal("no queries solved")
	}
}
