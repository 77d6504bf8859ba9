package server

import "testing"

// TestProgCacheAdmitsWhenFull: once the cache is full, a new program is
// admitted and the least recently used one is dropped.
func TestProgCacheAdmitsWhenFull(t *testing.T) {
	// Three texts of one program: a trailing comment changes only the
	// content hash.
	srcs := map[string]string{
		"A": fixtureSrc + "// a\n",
		"B": fixtureSrc + "// b\n",
		"C": fixtureSrc + "// c\n",
	}
	c := newProgCache(2)
	get := func(name string) *loadedProgram {
		t.Helper()
		lp, err := c.get(srcs[name])
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		return lp
	}
	get("A")
	get("B")
	if get("C") != get("C") {
		t.Error("the second request for C reloaded it: C was not admitted to the full cache")
	}
	for name, src := range srcs {
		_, cached := c.entries[hashSource(src)]
		if want := name != "A"; cached != want {
			t.Errorf("%s cached = %v, want %v: A is the least recently used", name, cached, want)
		}
	}
}
