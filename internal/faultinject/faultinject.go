// Package faultinject implements deterministic fault injection for chaos
// tests of the TRACER loop.
//
// An Injector is nil in production (every hook is a nil-check and return).
// Tests and cmd/tracer -chaos-seed wire one through core.Options.Inject;
// the solver then calls At at named hook points — just before the minimum
// search, a forward run, and a backward analysis — passing a deterministic
// key that identifies the exact occurrence: the scheduling round plus the
// group, abstraction or query. core.Solve runs the same loop over one query,
// so its keys are the round's group 0 and query 0. Because keys depend only
// on solver state, never on goroutine scheduling, the same injector fires
// the same faults for every worker count, which is what lets the chaos
// tests pin byte-identical degraded event streams across Workers 1/2/4.
//
// A solver handed one injector per query (cmd/tracer's per-query path)
// would see the same keys in every query and fail them together; Scope
// prefixes a query's keys with its name, so each query draws its own
// faults under one seed.
//
// Faults come in three flavors: a panic (thrown as *Fault, exercising the
// scheduler's recover paths), a delay (perturbing goroutine interleaving to
// stress determinism), and a budget trip (exercising the cooperative
// cancellation paths). Rules are either explicit (PanicAt/DelayAt/TripAt)
// or derived from a seed: Seeded hashes (seed, site, key) so a fraction of
// hook points fire pseudo-randomly yet reproducibly.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"tracer/internal/budget"
)

// Site names a class of hook points in the solver.
type Site string

const (
	// SiteMinimum fires just before a minsat.MinimumBudget call, which
	// conjoins the new clauses into the group's diagram and walks it.
	// Keys: "r<round>.g<group>", with the 0-based round and the group's
	// index in the round's signature order ("r<iter-1>.g0" for core.Solve).
	SiteMinimum Site = "minimum"
	// SiteForward fires just before a forward run.
	// Keys: "r<round>.<abstraction-key>" (uset.Set.Key of the abstraction).
	SiteForward Site = "forward"
	// SiteBackward fires just before a backward analysis.
	// Keys: "r<round>.q<query>", with the batch query index ("r<iter-1>.q0"
	// for core.Solve).
	SiteBackward Site = "backward"

	// SiteServerRequest fires in the solver daemon's admission path, after a
	// request decodes cleanly and before it is enqueued. Keys: the
	// server-assigned request id ("r<seq>"). A panic here degrades only that
	// request (it resolves Failed); a trip resolves it Exhausted.
	SiteServerRequest Site = "server.request"
	// SiteServerBatch fires just before the daemon executes one coalesced
	// batch round. Keys: the batch id ("b<seq>"). A panic fails every
	// request of the round; a trip shrinks the round's budget to nothing so
	// its requests resolve Exhausted.
	SiteServerBatch Site = "server.batch"
	// SiteServerDrain fires once at the start of graceful drain. Key:
	// "drain". A panic here is recovered and drain proceeds — shutdown must
	// survive its own chaos.
	SiteServerDrain Site = "server.drain"
)

// Fault is the value thrown by an injected panic, so recover sites (and
// tests) can tell injected faults from genuine bugs.
type Fault struct {
	Site Site
	Key  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s %s", f.Site, f.Key)
}

type action uint8

const (
	actPanic action = iota + 1
	actDelay
	actTrip
)

func (a action) String() string {
	switch a {
	case actPanic:
		return "panic"
	case actDelay:
		return "delay"
	case actTrip:
		return "trip"
	}
	return "?"
}

type rule struct {
	act   action
	delay time.Duration
}

// Injector decides, at each hook point, whether to fire a fault. A nil
// *Injector is inert. Explicit rules take precedence over the seeded mode.
type Injector struct {
	// A scoped injector forwards every hook to its root with prefix
	// prepended to the key; it holds no rules of its own.
	root   *Injector
	prefix string

	seeded bool
	seed   uint64
	rate   uint64 // firing threshold out of 2^32

	mu    sync.Mutex
	rules map[string]rule
	fired []string
}

// New returns an injector with no rules; add them with PanicAt/DelayAt/TripAt.
func New() *Injector {
	return &Injector{rules: map[string]rule{}}
}

// Seeded returns an injector that fires pseudo-randomly at roughly
// rate·100% of hook points, deterministically in (seed, site, key).
// The action at a firing point (panic, trip, or a sub-millisecond delay)
// is likewise derived from the hash.
func Seeded(seed int64, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Injector{
		rules:  map[string]rule{},
		seeded: true,
		seed:   uint64(seed),
		rate:   uint64(rate * float64(math.MaxUint32)),
	}
}

func (in *Injector) add(site Site, key string, r rule) {
	in.mu.Lock()
	in.rules[string(site)+"\x00"+key] = r
	in.mu.Unlock()
}

// PanicAt makes the hook point (site, key) panic with a *Fault.
func (in *Injector) PanicAt(site Site, key string) { in.add(site, key, rule{act: actPanic}) }

// DelayAt makes the hook point (site, key) sleep for d.
func (in *Injector) DelayAt(site Site, key string, d time.Duration) {
	in.add(site, key, rule{act: actDelay, delay: d})
}

// TripAt makes the hook point (site, key) trip the solve's budget with
// cause budget.Injected.
func (in *Injector) TripAt(site Site, key string) { in.add(site, key, rule{act: actTrip}) }

// Scope returns an injector for one of many solves sharing in: every key
// it sees becomes name + "/" + key, both for the seeded draw and for
// explicit rules, and fired faults are logged (and Fired reports them) on
// in's root. Solves with different names thus fail independently. A nil
// receiver returns nil.
func (in *Injector) Scope(name string) *Injector {
	if in == nil {
		return nil
	}
	if in.root != nil {
		return &Injector{root: in.root, prefix: in.prefix + name + "/"}
	}
	return &Injector{root: in, prefix: name + "/"}
}

// At is the hook the solver calls. It fires at most one fault: a panic
// (*Fault), a sleep, or b.Trip(budget.Injected). nil receivers return
// immediately; a trip on a nil budget is a no-op.
func (in *Injector) At(b *budget.Budget, site Site, key string) {
	if in == nil {
		return
	}
	if in.root != nil {
		in.root.At(b, site, in.prefix+key)
		return
	}
	in.mu.Lock()
	r, ok := in.rules[string(site)+"\x00"+key]
	if !ok && in.seeded {
		r, ok = in.seededRule(site, key)
	}
	if ok {
		in.fired = append(in.fired, fmt.Sprintf("%s %s %s", r.act, site, key))
	}
	in.mu.Unlock()
	if !ok {
		return
	}
	switch r.act {
	case actDelay:
		time.Sleep(r.delay)
	case actTrip:
		b.Trip(budget.Injected)
	case actPanic:
		panic(&Fault{Site: site, Key: key})
	}
}

func (in *Injector) seededRule(site Site, key string) (rule, bool) {
	h := fnv.New64a()
	var buf [8]byte
	s := in.seed
	for i := range buf {
		buf[i] = byte(s >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(site))
	h.Write([]byte{0})
	h.Write([]byte(key))
	v := h.Sum64()
	if v&math.MaxUint32 >= in.rate {
		return rule{}, false
	}
	switch (v >> 32) % 3 {
	case 0:
		return rule{act: actPanic}, true
	case 1:
		return rule{act: actTrip}, true
	default:
		return rule{act: actDelay, delay: time.Duration(200+(v>>34)%800) * time.Microsecond}, true
	}
}

// Fired returns the fired faults as "action site key" strings, in firing
// order. The set of fired faults is deterministic for a given solve; the
// order is deterministic only under Workers <= 1 (parallel phases may
// reach their hooks in any order).
func (in *Injector) Fired() []string {
	if in == nil {
		return nil
	}
	if in.root != nil {
		return in.root.Fired()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.fired))
	copy(out, in.fired)
	return out
}
