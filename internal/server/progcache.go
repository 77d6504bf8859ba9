package server

import "sync"

// progCache is a bounded, content-addressed LRU of loaded programs. Repeat
// requests for the same program text — the common case for a service fed by
// a fleet of clients analyzing one codebase — skip the parse/points-to/lower
// pipeline entirely and share one *driver.Program. The program carries its
// solver caches (each client's literal universe and WP caches), so later
// rounds reuse the weakest preconditions earlier ones derived; evicting the
// program frees them.
//
// Loads are deduplicated: concurrent first requests for the same source wait
// on one load (the entry's once gate) instead of parsing in parallel. Load
// errors are cached too, so a malformed program hammered by a retry loop
// costs one parse, not one per request.
type progCache struct {
	mu      sync.Mutex
	size    int
	tick    int64
	entries map[string]*progEntry
}

type progEntry struct {
	once sync.Once
	lp   *loadedProgram
	err  error
	used int64 // LRU tick, guarded by progCache.mu
}

func newProgCache(size int) *progCache {
	if size < 1 {
		size = 1
	}
	return &progCache{size: size, entries: map[string]*progEntry{}}
}

// get returns the loaded program for src, loading it at most once.
func (c *progCache) get(src string) (*loadedProgram, error) {
	key := hashSource(src)
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &progEntry{}
		c.entries[key] = e
	}
	// Stamp before evicting, so a new entry is the most recently used one.
	c.tick++
	e.used = c.tick
	c.evictLocked()
	c.mu.Unlock()
	e.once.Do(func() {
		e.lp, e.err = loadProgram(key, src)
	})
	return e.lp, e.err
}

// evictLocked drops least-recently-used entries beyond the size bound. An
// evicted entry still loading is unaffected: its waiters hold the pointer.
func (c *progCache) evictLocked() {
	for len(c.entries) > c.size {
		var lruKey string
		var lru int64 = 1<<63 - 1
		for k, e := range c.entries {
			if e.used < lru {
				lruKey, lru = k, e.used
			}
		}
		delete(c.entries, lruKey)
	}
}
