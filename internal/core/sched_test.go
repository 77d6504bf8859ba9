package core

import "testing"

func cacheKeys(c *fwdCache) []string {
	var ks []string
	for e := c.root.next; e != &c.root; e = e.next {
		ks = append(ks, e.key)
	}
	return ks
}

func TestFwdCacheLRU(t *testing.T) {
	c := newFwdCache(3)
	for _, k := range []string{"a", "b", "c"} {
		c.put(k, &fwdEntry{})
	}
	if got := cacheKeys(c); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("order after fill: %v", got)
	}
	// Hitting "a" makes it most recent; inserting "d" must evict "b".
	if c.get("a") == nil {
		t.Fatal("missing a")
	}
	c.put("d", &fwdEntry{})
	if c.get("b") != nil {
		t.Fatal("b should have been evicted")
	}
	if got := cacheKeys(c); len(got) != 3 || got[0] != "c" || got[1] != "a" || got[2] != "d" {
		t.Fatalf("order after evict: %v", got)
	}
	// Replacing an existing key keeps the size and refreshes recency.
	e2 := &fwdEntry{lastSteps: 7}
	c.put("c", e2)
	if got := c.get("c"); got != e2 {
		t.Fatal("replacement not visible")
	}
	if got := cacheKeys(c); len(got) != 3 || got[2] != "c" {
		t.Fatalf("order after replace: %v", got)
	}
	// Reverse links must mirror forward links (intrusive-list integrity).
	for e := c.root.next; e != &c.root; e = e.next {
		if e.next.prev != e || e.prev.next != e {
			t.Fatalf("broken links at %q", e.key)
		}
	}
}
