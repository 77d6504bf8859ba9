// Package warm implements a persistent, content-addressed warm-start store
// for the TRACER solver. A store directory holds one snapshot file per
// (program fingerprint, client, configuration): the learned blocking clauses
// and final verdict of every query solved against that program. A later
// process re-solving the same — or a slightly edited — program opens a
// Session, which finds the nearest snapshot by IR fingerprint, invalidates
// exactly the clauses the edit could have broken, and seeds the survivors
// into the solver before iteration 1. A file holds a small header (the
// fingerprints, client and configuration) followed by the queries, so the
// session chooses by reading only its own client and configuration's
// headers and then decodes the queries of the one snapshot it uses.
//
// # Soundness
//
// A stored clause blocks a cube of abstractions that a previous backward
// meta-analysis proved failing, justified by one counterexample trace t.
// Seeding it into a solve over program P' is sound iff the cube still
// contains only failing abstractions there, which holds when t remains a
// feasible trace of P' with the same weakest-precondition chain:
//
//  1. the declaration shape (globals, hierarchy, fields, signatures,
//     native-ness) is unchanged — otherwise lowering may resolve calls
//     differently everywhere (snapshot-level check);
//  2. every method supporting t (the methods owning t's atoms and the
//     allocation sites t mentions) has an identical body fingerprint
//     (per-clause check against the IR diff);
//  3. the points-to environment of the supporting methods is unchanged
//     (per-clause hash) — t's call branches were chosen by those sets, and
//     the type-state MayPoint oracle reads them;
//  4. the client configuration (k, and for type-state the stress property's
//     method list) is unchanged (snapshot-level check);
//  5. every parameter name in the cube still exists in the new parameter
//     universe (clauses are stored by name and remapped to indices at
//     load; a vanished name kills the clause).
//
// By induction along t each atom's edge still exists in the lowered P', so
// the trace replays and the meta-analysis would re-derive the same cubes.
//
// Verdicts are never trusted across an edit. On a byte-exact fingerprint
// match, Proved/Impossible verdicts are still re-established by the solver
// (the seeded clause set makes that 1 and 0 forward runs respectively);
// only Exhausted verdicts are replayed without solving, and only under the
// identical iteration cap — re-running a full iteration cap per
// already-known-hopeless query would erase the warm win. A solve whose
// budget tripped (cancelled context, step quota, deadline) is never stored
// as Exhausted, so every stored Exhausted verdict is one the iteration cap
// decided, and a fresh solve under any deadline would return it too.
//
// # Sessions
//
// Session.Solve and Session.SolveBatch are the one warm-solve path: they
// replay, seed, record learned clauses and choose which verdicts are stored.
// Callers open a session per program and client, solve through it, and Save
// it. Sessions over one program may run concurrently: Save merges the
// snapshot already on disk for the same program and configuration into its
// own entries (other queries' entries are kept, clauses are unioned, the
// saving session's verdict wins), and a Store serializes session loading
// and snapshot writes within one process. Across processes the merge is not
// atomic: a snapshot written between another process's read and its rename
// is lost.
//
// Everything read from disk is untrusted: unparseable files, version
// mismatches, unknown statuses, and unknown parameter names degrade to a
// cold solve (counted on warm.entries_corrupt / warm.clauses_invalidated),
// never to an error.
package warm

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tracer/internal/obs"
)

// Version is the snapshot schema version; files with any other version are
// ignored (cold fallback), never migrated. Since version 2 a file stores the
// header and the queries as two JSON values, so a session chooses from
// headers alone. Version 3 drops the timeout a verdict was solved under:
// version 2 files may hold Exhausted verdicts that a deadline decided.
const Version = 3

// Store is a handle on a warm-start directory. The zero value (and any Open
// failure) is a disabled store whose Sessions are all-cold no-ops.
type Store struct {
	dir string
	rec obs.Recorder
	// mu serializes session loading and snapshot writes within the
	// process: a save's read-merge-write of one snapshot never interleaves
	// with another's, and a load never races a prune.
	mu sync.Mutex
}

// Open returns a store rooted at dir, creating it if needed. Open never
// fails hard: on error the returned store is disabled and every session
// behaves cold. rec (nil ok) receives the warm.* counters.
func Open(dir string, rec obs.Recorder) *Store {
	st := &Store{rec: rec}
	if dir == "" {
		return st
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st
	}
	st.dir = dir
	return st
}

// Enabled reports whether the store has a usable directory.
func (st *Store) Enabled() bool { return st != nil && st.dir != "" }

func (st *Store) count(name string, n int64) {
	if st != nil && st.rec != nil && n != 0 {
		st.rec.Count(name, n)
	}
}

// snapshotHeader is the first JSON value of a snapshot file — one solved
// program × client × config — and everything the nearest-snapshot choice
// reads. The second value maps each position-independent query key to its
// queryEntry.
type snapshotHeader struct {
	Version int    `json:"version"`
	Whole   string `json:"whole"` // hex ir.ProgramFP.Whole
	Shape   string `json:"shape"` // hex ir.ProgramFP.Shape
	// Methods maps QualName → hex body fingerprint, for delta matching.
	Methods map[string]string `json:"methods"`
	Client  string            `json:"client"`
	Conf    string            `json:"conf"` // client config signature
}

// queryEntry is one query's persisted outcome.
type queryEntry struct {
	// Status is "proved", "impossible", or "exhausted" (failed queries are
	// never persisted).
	Status     string `json:"status"`
	Iterations int    `json:"iters"`
	// MaxIters records the iteration cap the entry was solved under;
	// Exhausted entries are only replayed under the identical cap.
	MaxIters int `json:"maxIters"`
	// Abs is the proving abstraction by parameter name (diagnostic only —
	// warm solves re-derive it from the seeded clauses).
	Abs     []string       `json:"abs,omitempty"`
	Clauses []storedClause `json:"clauses,omitempty"`
}

// storedClause is one blocking cube by parameter name, with its validity
// guard: the methods supporting the justifying trace and the hex points-to
// environment hash of those methods at learn time.
type storedClause struct {
	Pos     []string `json:"pos,omitempty"`
	Neg     []string `json:"neg,omitempty"`
	Support []string `json:"support"`
	Env     string   `json:"env"`
}

// cubeKey canonically renders a stored clause for deduplication.
func (c storedClause) cubeKey() string {
	return strings.Join(c.Pos, ",") + "|" + strings.Join(c.Neg, ",")
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// snapshotPath names the file for one (program, client, conf) snapshot;
// whole is the hex program fingerprint, or "*" to glob every program's.
func (st *Store) snapshotPath(whole, client, conf string) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s-%s-%08x.json", whole, client, fnvString(conf)))
}

// listSnapshots returns the snapshot files of one client+conf in name order;
// other clients' and configurations' files are never opened.
func (st *Store) listSnapshots(client, conf string) []string {
	if !st.Enabled() {
		return nil
	}
	names, err := filepath.Glob(st.snapshotPath("*", client, conf))
	if err != nil {
		return nil
	}
	sort.Strings(names)
	return names
}

func fnvString(s string) uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// readHeader decodes only the header of a snapshot file. It fails on an
// unreadable file, a malformed header, or another schema version (a v1 file
// is one object, so its header never carries the current version).
func readHeader(name string) (*snapshotHeader, bool) {
	f, err := os.Open(name)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var h snapshotHeader
	if err := json.NewDecoder(f).Decode(&h); err != nil || h.Version != Version {
		return nil, false
	}
	return &h, true
}

// readQueries decodes the queries of a snapshot file, skipping its header.
// It fails when they are malformed or followed by anything else.
func readQueries(name string) (map[string]*queryEntry, bool) {
	f, err := os.Open(name)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var header json.RawMessage
	var queries map[string]*queryEntry
	if dec.Decode(&header) != nil || dec.Decode(&queries) != nil {
		return nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false
	}
	return queries, true
}

// writeSnapshot atomically persists a snapshot, merged with the one
// already at its path, and prunes stale snapshots of the same client+conf
// beyond a small budget (oldest fingerprints first by modification time), so
// edit chains do not grow the directory unboundedly.
func (st *Store) writeSnapshot(h *snapshotHeader, queries map[string]*queryEntry) error {
	if !st.Enabled() {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	path := st.snapshotPath(h.Whole, h.Client, h.Conf)
	header, err := json.MarshalIndent(h, "", " ")
	if err != nil {
		return err
	}
	body, err := json.Marshal(mergeStored(path, h, queries))
	if err != nil {
		return err
	}
	data := make([]byte, 0, len(header)+len(body)+2)
	data = append(append(data, header...), '\n')
	data = append(append(data, body...), '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	st.prune(h.Client, h.Conf, path)
	return nil
}

// mergeStored returns queries merged with the snapshot stored at path when
// that file's header names the same program (whole and shape fingerprints),
// client and conf: the stored entries of other queries are carried over,
// each query's clauses are the union of both sides by cubeKey, and the
// verdict of queries wins when it has one. Otherwise it returns queries.
// It never modifies queries or their entries.
func mergeStored(path string, h *snapshotHeader, queries map[string]*queryEntry) map[string]*queryEntry {
	old, ok := readHeader(path)
	if !ok || old.Whole != h.Whole || old.Shape != h.Shape || old.Client != h.Client || old.Conf != h.Conf {
		return queries
	}
	stored, ok := readQueries(path)
	if !ok {
		return queries
	}
	for key, e := range queries {
		prev := stored[key]
		if prev == nil {
			stored[key] = e
			continue
		}
		merged := *e
		if merged.Status == "" {
			merged.Status, merged.Iterations, merged.MaxIters, merged.Abs = prev.Status, prev.Iterations, prev.MaxIters, prev.Abs
		}
		merged.Clauses = append([]storedClause(nil), e.Clauses...)
		have := make(map[string]bool, len(e.Clauses))
		for _, c := range e.Clauses {
			have[c.cubeKey()] = true
		}
		for _, c := range prev.Clauses {
			if !have[c.cubeKey()] {
				have[c.cubeKey()] = true
				merged.Clauses = append(merged.Clauses, c)
			}
		}
		stored[key] = &merged
	}
	return stored
}

// maxSnapshots bounds how many snapshots one client+conf keeps on disk.
const maxSnapshots = 16

func (st *Store) prune(client, conf string, keep string) {
	names := st.listSnapshots(client, conf)
	if len(names) <= maxSnapshots {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	var files []aged
	for _, name := range names {
		if name == keep {
			continue
		}
		fi, err := os.Stat(name)
		if err != nil {
			continue
		}
		files = append(files, aged{name, fi.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for i := 0; i+maxSnapshots <= len(files); i++ {
		os.Remove(files[i].name)
	}
}
