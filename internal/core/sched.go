package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tracer/internal/uset"
)

// panicInfo captures a recovered panic at the point of recovery: the
// rendered panic value (deterministic for a given fault) and the goroutine
// stack (diagnostic only — stacks embed goroutine IDs, so they are carried
// in Result.Stack and never in the obs event stream).
type panicInfo struct {
	msg   string
	stack string
}

func capturePanic(r any) *panicInfo {
	return &panicInfo{msg: fmt.Sprint(r), stack: string(debug.Stack())}
}

// parallelFor runs f(0..n-1) across at most workers goroutines and waits for
// all of them. With workers <= 1 it degenerates to a plain loop on the
// calling goroutine (no goroutines spawned), so the sequential batch path
// has zero scheduling overhead. Work is handed out by an atomic counter, so
// the assignment of indices to goroutines is nondeterministic — callers must
// make each f(i) a pure function of its inputs writing only to slot i.
func parallelFor(workers, n int, f func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// fwdEntry is one memoized forward run. lastSteps remembers the run's step
// count as of the last round that used it: forward runs are lazy (typestate
// work happens inside Check), so a memoized run can keep accruing steps
// across rounds, and each round charges only the delta to TotalSteps. key,
// prev, and next embed the entry in the cache's recency list, making every
// LRU operation O(1) (the previous order slice cost an O(cap) scan per hit,
// which showed up once cache sizes grew past the original 16).
type fwdEntry struct {
	run       BatchRun
	p         uset.Set // abstraction the run was produced under
	lastSteps int
	// lastDelta snapshots the run's cumulative DeltaStats as of the last
	// round that used it, so each round charges only the delta (lazy runs
	// keep accruing reuse inside Check, like steps).
	lastDelta  [3]int
	key        string
	prev, next *fwdEntry
}

// fwdCacheCap bounds SolveBatch's LRU memo of forward runs: groups converging
// on the same minimum abstraction reuse one whole-program solve. 64 was picked
// by a {16,64,256} paperbench sweep: it nearly doubles the 16-entry hit rate at
// indistinguishable wall time, while 256 keeps gaining hits but costs wall.
const fwdCacheCap = 64

// fwdCache is an LRU memo of forward runs keyed by the canonical abstraction
// key. Recency is an intrusive circular doubly-linked list through the
// entries (root.next = least recent, root.prev = most recent). It is only
// touched from the scheduler's sequential merge phases, so it needs no
// locking; determinism follows from those phases processing groups in
// sorted-signature order.
type fwdCache struct {
	cap     int
	entries map[string]*fwdEntry
	root    fwdEntry // list sentinel; carries no run
}

func newFwdCache(cap int) *fwdCache {
	c := &fwdCache{cap: cap, entries: map[string]*fwdEntry{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// get returns the entry for key (refreshing its recency) or nil.
func (c *fwdCache) get(key string) *fwdEntry {
	e := c.entries[key]
	if e != nil {
		c.unlink(e)
		c.pushMRU(e)
	}
	return e
}

// put inserts an entry, evicting the least recently used one on overflow.
func (c *fwdCache) put(key string, e *fwdEntry) {
	if old, ok := c.entries[key]; ok {
		c.unlink(old)
	}
	e.key = key
	c.entries[key] = e
	c.pushMRU(e)
	if len(c.entries) > c.cap {
		lru := c.root.next
		c.unlink(lru)
		delete(c.entries, lru.key)
	}
}

// takeDonor removes and returns the memoized run best suited to seed a fresh
// solve under p: the entry with the smallest parameter flip distance to p,
// ties broken toward the more recently used, skipping entries whose exact
// abstraction is still wanted this round and entries farther than maxFlip
// flips away. Consumption is mandatory — resuming a retained run invalidates
// the donor's result, so it must never serve another Check. Called only from
// the scheduler's sequential pass, so the choice is deterministic.
func (c *fwdCache) takeDonor(p uset.Set, wanted map[string]bool, maxFlip int) *fwdEntry {
	var best *fwdEntry
	bestFlip := maxFlip + 1
	for e := c.root.prev; e != &c.root; e = e.prev {
		if wanted[e.key] {
			continue
		}
		if f := flipDist(e.p, p); f < bestFlip {
			best, bestFlip = e, f
		}
	}
	if best != nil {
		c.unlink(best)
		delete(c.entries, best.key)
	}
	return best
}

// flipDist is the size of the symmetric difference of two abstractions — the
// number of parameters a donor run's revalidation has to consider flipped.
func flipDist(a, b uset.Set) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			i++
			d++
		default:
			j++
			d++
		}
	}
	return d + (len(a) - i) + (len(b) - j)
}

func (c *fwdCache) unlink(e *fwdEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (c *fwdCache) pushMRU(e *fwdEntry) {
	last := c.root.prev
	last.next = e
	e.prev = last
	e.next = &c.root
	c.root.prev = e
}
