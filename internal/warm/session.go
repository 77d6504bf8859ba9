package warm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// Client names the analysis client a session stores entries for.
type Client string

const (
	Typestate Client = "typestate"
	Escape    Client = "escape"
	Nullness  Client = "nullness"
)

// Config identifies the solving configuration of a session. K participates
// in the snapshot's config signature (clauses learned at one k are not
// reused at another); MaxIters and Timeout only gate Exhausted replay.
type Config struct {
	Client   Client
	K        int
	MaxIters int // effective iteration cap of the solve
	Timeout  time.Duration
}

// Session is the warm-start view of one program under one configuration:
// entries surviving the IR delta against the nearest stored snapshot, plus
// everything recorded during the current solve. Record methods are safe for
// concurrent use (core.Options.OnLearn fires from parallel workers).
type Session struct {
	st      *Store
	prog    *driver.Program
	conf    Config
	confSig string
	fp      ir.ProgramFP

	// exact reports a byte-exact Whole fingerprint match with the loaded
	// snapshot; only then are Exhausted verdicts replayable.
	exact bool

	names   []string // parameter universe, index = parameter id
	nameIdx map[string]int

	mu      sync.Mutex
	entries map[string]*queryEntry
	seen    map[string]map[string]bool // per-query cube dedup keys
}

// confSignature builds the snapshot-level config identity (soundness
// condition 4). Client-specific whole-program knobs (the type-state stress
// property's method list) come from the registry's WarmConfExtra, keeping
// the signature byte-identical with snapshots written before the registry.
func confSignature(p *driver.Program, conf Config) string {
	extra := ""
	if spec := driver.ClientByName(string(conf.Client)); spec != nil {
		extra = spec.WarmConfExtra(p)
	}
	return fmt.Sprintf("%s|k=%d%s", conf.Client, conf.K, extra)
}

// Session loads the warm-start state for prog under conf. It never fails:
// with no usable snapshot (or a disabled store) every query is simply cold.
func (st *Store) Session(p *driver.Program, conf Config) *Session {
	s := &Session{
		st:      st,
		prog:    p,
		conf:    conf,
		confSig: confSignature(p, conf),
		fp:      ir.Fingerprint(p.IR),
		entries: map[string]*queryEntry{},
		seen:    map[string]map[string]bool{},
	}
	if spec := driver.ClientByName(string(conf.Client)); spec != nil {
		s.names = spec.ParamNames(p)
	}
	s.nameIdx = make(map[string]int, len(s.names))
	for i, n := range s.names {
		s.nameIdx[n] = i
	}
	s.load()
	return s
}

// Exact reports whether the session matched a snapshot of the identical
// program (replay-eligible).
func (s *Session) Exact() bool { return s.exact }

// load installs the surviving entries of the nearest compatible snapshot.
// Only that snapshot's queries are decoded; when they turn out corrupt the
// next-nearest candidate is tried.
func (s *Session) load() {
	if !s.st.Enabled() {
		return
	}
	cands := s.candidates()
	s.st.count(obs.WarmSnapshots, int64(len(cands)))
	for _, c := range cands {
		queries, ok := readQueries(c.name)
		if !ok {
			s.st.count(obs.WarmEntriesCorrupt, 1)
			continue
		}
		s.exact = c.touched == nil
		s.install(queries, c.touched)
		return
	}
}

// candidate is a snapshot file whose header this session may reuse.
type candidate struct {
	name    string
	touched map[string]bool // nil on a byte-exact Whole match
}

// candidates reads the headers of this client and configuration's snapshot
// files and returns the reusable ones — same client, same config signature,
// same declaration shape (soundness conditions 1 and 4) — nearest first: an
// exact Whole match, then fewest touched methods, then name order.
func (s *Session) candidates() []candidate {
	var out []candidate
	for _, name := range s.st.listSnapshots(string(s.conf.Client), s.confSig) {
		h, ok := readHeader(name)
		if !ok {
			s.st.count(obs.WarmEntriesCorrupt, 1)
			continue
		}
		if h.Client != string(s.conf.Client) || h.Conf != s.confSig || h.Shape != hex64(s.fp.Shape) {
			continue
		}
		c := candidate{name: name}
		if h.Whole != hex64(s.fp.Whole) {
			c.touched = s.touchedMethods(h)
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if ei, ej := out[i].touched == nil, out[j].touched == nil; ei != ej {
			return ei
		}
		return len(out[i].touched) < len(out[j].touched)
	})
	return out
}

// install filters a snapshot's entries through the delta rules and keeps
// the survivors.
func (s *Session) install(queries map[string]*queryEntry, touched map[string]bool) {
	var loaded, invalidated int64
	for key, e := range queries {
		kept := s.surviveEntry(e, touched)
		loaded += int64(len(kept.Clauses))
		invalidated += int64(len(e.Clauses) - len(kept.Clauses))
		if kept.Status == "" && len(kept.Clauses) == 0 {
			continue
		}
		s.entries[key] = kept
		dedup := make(map[string]bool, len(kept.Clauses))
		for _, c := range kept.Clauses {
			dedup[c.cubeKey()] = true
		}
		s.seen[key] = dedup
	}
	s.st.count(obs.WarmClausesLoaded, loaded)
	s.st.count(obs.WarmClausesInvalidated, invalidated)
}

// touchedMethods lists the methods whose stored body fingerprint differs
// from the current program's.
func (s *Session) touchedMethods(h *snapshotHeader) map[string]bool {
	touched := map[string]bool{}
	for name, fp := range s.fp.Methods {
		if h.Methods[name] != hex64(fp) {
			touched[name] = true
		}
	}
	for name := range h.Methods {
		if _, ok := s.fp.Methods[name]; !ok {
			touched[name] = true
		}
	}
	return touched
}

// surviveEntry filters one stored entry through the delta rules. touched ==
// nil means an exact snapshot match: every clause survives (modulo name
// validation) and the verdict is kept. Otherwise the verdict is cleared —
// stale verdicts must never become replayable by being re-saved against the
// new fingerprint — and each clause survives only if its support is
// untouched, its environment hash still matches, and its names exist.
func (s *Session) surviveEntry(e *queryEntry, touched map[string]bool) *queryEntry {
	kept := &queryEntry{
		Status:     e.Status,
		Iterations: e.Iterations,
		MaxIters:   e.MaxIters,
		TimeoutMS:  e.TimeoutMS,
		Abs:        e.Abs,
	}
	if !s.validStatus(e.Status) || touched != nil {
		kept.Status, kept.Iterations, kept.Abs = "", 0, nil
	}
	for _, c := range e.Clauses {
		if !s.namesValid(c.Pos) || !s.namesValid(c.Neg) {
			continue
		}
		if touched != nil {
			if len(c.Support) == 0 {
				continue // unguarded clause: only trustable byte-exact
			}
			ok := true
			for _, m := range c.Support {
				if touched[m] {
					ok = false
					break
				}
			}
			if !ok || c.Env != hex64(s.prog.EnvHash(c.Support)) {
				continue
			}
		}
		kept.Clauses = append(kept.Clauses, c)
	}
	return kept
}

func (s *Session) validStatus(status string) bool {
	switch status {
	case core.Proved.String(), core.Impossible.String(), core.Exhausted.String():
		return true
	}
	return false
}

func (s *Session) namesValid(names []string) bool {
	for _, n := range names {
		if _, ok := s.nameIdx[n]; !ok {
			return false
		}
	}
	return true
}

// SeedFor returns the surviving blocking cubes of a query, to be passed as
// core.Options.Seed (or returned from SeedBatch). Each consulted query
// counts as a warm hit (an entry with seeds or a replayable verdict exists)
// or miss.
func (s *Session) SeedFor(queryKey string) []core.ParamCube {
	s.mu.Lock()
	e := s.entries[queryKey]
	s.mu.Unlock()
	if e == nil || (len(e.Clauses) == 0 && !s.replayable(e)) {
		s.st.count(obs.WarmQueryMiss, 1)
		return nil
	}
	s.st.count(obs.WarmQueryHit, 1)
	out := make([]core.ParamCube, 0, len(e.Clauses))
	for _, c := range e.Clauses {
		cube, ok := s.cubeOf(c)
		if !ok {
			continue
		}
		out = append(out, cube)
	}
	return out
}

func (s *Session) cubeOf(c storedClause) (core.ParamCube, bool) {
	pos := make([]int, 0, len(c.Pos))
	for _, n := range c.Pos {
		id, ok := s.nameIdx[n]
		if !ok {
			return core.ParamCube{}, false
		}
		pos = append(pos, id)
	}
	neg := make([]int, 0, len(c.Neg))
	for _, n := range c.Neg {
		id, ok := s.nameIdx[n]
		if !ok {
			return core.ParamCube{}, false
		}
		neg = append(neg, id)
	}
	return core.ParamCube{Pos: uset.New(pos...), Neg: uset.New(neg...)}, true
}

func (s *Session) replayable(e *queryEntry) bool {
	return s.exact && e.Status == core.Exhausted.String() &&
		e.MaxIters == s.conf.MaxIters &&
		e.TimeoutMS == s.conf.Timeout.Milliseconds()
}

// Replay returns a stored verdict that may stand in for a fresh solve.
// Policy: only Exhausted verdicts that reached the iteration cap (tripped
// ones are never recorded), only on a byte-exact program match under the
// identical iteration cap and timeout. Proved and Impossible verdicts
// are never replayed — the solver re-establishes them from the seeded
// clauses in at most one forward run, which keeps the brute-force oracle
// applicable to every warm answer.
func (s *Session) Replay(queryKey string) (core.Result, bool) {
	s.mu.Lock()
	e := s.entries[queryKey]
	s.mu.Unlock()
	if e == nil || !s.replayable(e) {
		return core.Result{}, false
	}
	s.st.count(obs.WarmReplayExhausted, 1)
	return core.Result{
		Status:     core.Exhausted,
		Iterations: e.Iterations,
	}, true
}

// RecordLearn persists the accepted cubes of one backward pass for a query
// (wire it to core.Options.OnLearn). The justifying trace determines the
// clause guards: its supporting methods and their current environment hash.
func (s *Session) RecordLearn(queryKey string, t lang.Trace, cubes []core.ParamCube) {
	if !s.st.Enabled() || len(cubes) == 0 {
		return
	}
	support := supportMethods(s.prog, t)
	env := hex64(s.prog.EnvHash(support))
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[queryKey]
	if e == nil {
		e = &queryEntry{}
		s.entries[queryKey] = e
	}
	dedup := s.seen[queryKey]
	if dedup == nil {
		dedup = map[string]bool{}
		s.seen[queryKey] = dedup
	}
	for _, cube := range cubes {
		c := storedClause{
			Pos:     s.namesOf(cube.Pos),
			Neg:     s.namesOf(cube.Neg),
			Support: support,
			Env:     env,
		}
		k := c.cubeKey()
		if dedup[k] {
			continue
		}
		dedup[k] = true
		e.Clauses = append(e.Clauses, c)
	}
}

// RecordResult persists a query's final verdict. Failed results are not
// stored (they describe this process's misbehavior, not the program), nor
// are tripped ones (a cancelled context, step quota or deadline cut the
// solve short, so the verdict says nothing about the iteration cap).
// Exhausted results remember the iteration cap they were measured under.
func (s *Session) RecordResult(queryKey string, r core.Result) {
	if !s.st.Enabled() || r.Status == core.Failed || r.Tripped {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[queryKey]
	if e == nil {
		e = &queryEntry{}
		s.entries[queryKey] = e
	}
	e.Status = r.Status.String()
	e.Iterations = r.Iterations
	e.MaxIters = s.conf.MaxIters
	e.TimeoutMS = s.conf.Timeout.Milliseconds()
	e.Abs = s.namesOf(r.Abstraction)
}

func (s *Session) namesOf(set uset.Set) []string {
	if set.Empty() {
		return nil
	}
	out := make([]string, 0, set.Len())
	for _, id := range set.Elems() {
		if id >= 0 && id < len(s.names) {
			out = append(out, s.names[id])
		}
	}
	sort.Strings(out)
	return out
}

// Save writes the session's entries as the snapshot for the current program
// fingerprint. Surviving-but-unsolved entries are saved too (their clauses
// stay reusable; their verdicts were already cleared unless byte-exact).
func (s *Session) Save() error {
	if !s.st.Enabled() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return nil
	}
	methods := make(map[string]string, len(s.fp.Methods))
	for name, fp := range s.fp.Methods {
		methods[name] = hex64(fp)
	}
	return s.st.writeSnapshot(&snapshotHeader{
		Version: Version,
		Whole:   hex64(s.fp.Whole),
		Shape:   hex64(s.fp.Shape),
		Methods: methods,
		Client:  string(s.conf.Client),
		Conf:    s.confSig,
	}, s.entries)
}

// supportMethods extracts the QualNames of the methods supporting a trace:
// the owners of every qualified variable its atoms mention, plus the owners
// of every allocation site (soundness condition 2's support set).
func supportMethods(p *driver.Program, t lang.Trace) []string {
	set := map[string]bool{}
	addVar := func(qv string) {
		if i := strings.Index(qv, "::"); i > 0 {
			set[qv[:i]] = true
		}
	}
	addSite := func(h string) {
		if owner := p.SiteOwner(h); owner != "" {
			set[owner] = true
		}
	}
	for _, at := range t {
		switch at := at.(type) {
		case lang.Alloc:
			addVar(at.V)
			addSite(at.H)
		case lang.Move:
			addVar(at.Dst)
			addVar(at.Src)
		case lang.MoveNull:
			addVar(at.V)
		case lang.GlobalWrite:
			addVar(at.V)
		case lang.GlobalRead:
			addVar(at.V)
		case lang.Load:
			addVar(at.Dst)
			addVar(at.Src)
		case lang.Store:
			addVar(at.Dst)
			addVar(at.Src)
		case lang.Invoke:
			addVar(at.V)
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
