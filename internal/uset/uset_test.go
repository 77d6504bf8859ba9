package uset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDedupSort(t *testing.T) {
	s := New(3, 1, 2, 3, 1)
	want := []int{1, 2, 3}
	got := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestEmpty(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Has(0) {
		t.Fatal("zero Set should be empty")
	}
	if s.Key() != "" || s.String() != "{}" {
		t.Fatalf("empty key/string: %q %q", s.Key(), s.String())
	}
}

func TestAddRemove(t *testing.T) {
	s := New(1, 3)
	s2 := s.Add(2)
	if !s2.Has(2) || s2.Len() != 3 {
		t.Fatalf("Add: %v", s2)
	}
	if s.Len() != 2 {
		t.Fatalf("Add mutated receiver: %v", s)
	}
	if got := s2.Add(2); !got.Equal(s2) {
		t.Fatalf("Add existing changed set: %v", got)
	}
	s3 := s2.Remove(3)
	if s3.Has(3) || s3.Len() != 2 {
		t.Fatalf("Remove: %v", s3)
	}
	if got := s3.Remove(99); !got.Equal(s3) {
		t.Fatalf("Remove absent changed set: %v", got)
	}
	if got := New(7).Remove(7); !got.Empty() {
		t.Fatalf("Remove last: %v", got)
	}
}

func TestSetOpsAgainstMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a, b := randSet(rng), randSet(rng)
		ma, mb := toMap(a), toMap(b)
		checkSame(t, "union", a.Union(b), union(ma, mb))
		checkSame(t, "intersect", a.Intersect(b), intersect(ma, mb))
		checkSame(t, "diff", a.Diff(b), diff(ma, mb))
		if got, want := a.SubsetOf(b), subset(ma, mb); got != want {
			t.Fatalf("SubsetOf(%v,%v)=%v want %v", a, b, got, want)
		}
	}
}

func randSet(rng *rand.Rand) Set {
	n := rng.Intn(10)
	elems := make([]int, n)
	for i := range elems {
		elems[i] = rng.Intn(12)
	}
	return New(elems...)
}

func toMap(s Set) map[int]bool {
	m := make(map[int]bool)
	for _, e := range s.Elems() {
		m[e] = true
	}
	return m
}

func fromMap(m map[int]bool) []int {
	var out []int
	for e := range m {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

func union(a, b map[int]bool) []int {
	m := make(map[int]bool)
	for e := range a {
		m[e] = true
	}
	for e := range b {
		m[e] = true
	}
	return fromMap(m)
}

func intersect(a, b map[int]bool) []int {
	m := make(map[int]bool)
	for e := range a {
		if b[e] {
			m[e] = true
		}
	}
	return fromMap(m)
}

func diff(a, b map[int]bool) []int {
	m := make(map[int]bool)
	for e := range a {
		if !b[e] {
			m[e] = true
		}
	}
	return fromMap(m)
}

func subset(a, b map[int]bool) bool {
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

func checkSame(t *testing.T, op string, got Set, want []int) {
	t.Helper()
	g := got.Elems()
	if len(g) != len(want) {
		t.Fatalf("%s: got %v want %v", op, g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("%s: got %v want %v", op, g, want)
		}
	}
}

func TestKeyCanonical(t *testing.T) {
	if New(2, 1).Key() != New(1, 2, 2).Key() {
		t.Fatal("keys of equal sets differ")
	}
	if New(1, 2).Key() == New(1, 2, 3).Key() {
		t.Fatal("keys of different sets collide")
	}
	// {1,23} must not collide with {12,3}.
	if New(1, 23).Key() == New(12, 3).Key() {
		t.Fatal("separator failed to disambiguate")
	}
}

// TestKeyBytes pins the exact key and string forms: fault-injection keys,
// the batch's per-round run table and the intern tables all depend on them.
func TestKeyBytes(t *testing.T) {
	for _, c := range []struct {
		s         Set
		key, text string
	}{
		{nil, "", "{}"},
		{New(0), "0", "{0}"},
		{New(1, 23), "1,23", "{1,23}"},
		{New(10, 0, 7), "0,7,10", "{0,7,10}"},
		{New(4096, 65, 9), "9,65,4096", "{9,65,4096}"},
	} {
		if got := c.s.Key(); got != c.key {
			t.Errorf("%v.Key() = %q, want %q", []int(c.s), got, c.key)
		}
		if got := c.s.String(); got != c.text {
			t.Errorf("%v.String() = %q, want %q", []int(c.s), got, c.text)
		}
	}
}

func TestUnionCommutesQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := fromBytes(xs)
		b := fromBytes(ys)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnionIdempotentQuick(t *testing.T) {
	f := func(xs []uint8) bool {
		a := fromBytes(xs)
		return a.Union(a).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeMorganDiffQuick(t *testing.T) {
	// a ∖ (a ∩ b) == a ∖ b
	f := func(xs, ys []uint8) bool {
		a := fromBytes(xs)
		b := fromBytes(ys)
		return a.Diff(a.Intersect(b)).Equal(a.Diff(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fromBytes(bs []uint8) Set {
	elems := make([]int, len(bs))
	for i, b := range bs {
		elems[i] = int(b % 16)
	}
	return New(elems...)
}

func TestBits(t *testing.T) {
	b := BitsOf(0, 2, 5)
	if !b.Has(0) || !b.Has(2) || !b.Has(5) || b.Has(1) {
		t.Fatalf("membership wrong: %b", b)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	b2 := b.Add(1).Remove(5)
	want := []int{0, 1, 2}
	got := b2.Elems()
	if len(got) != len(want) {
		t.Fatalf("Elems %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems %v want %v", got, want)
		}
	}
	if !Bits(0).Empty() || b.Empty() {
		t.Fatal("Empty wrong")
	}
	if b.Union(BitsOf(1)).Len() != 4 || b.Intersect(BitsOf(2, 7)).Len() != 1 {
		t.Fatal("union/intersect wrong")
	}
}

func TestWords(t *testing.T) {
	w := MakeWords(130)
	if len(w) != 3 {
		t.Fatalf("MakeWords(130) = %d words", len(w))
	}
	for _, i := range []uint32{0, 63, 64, 129} {
		if w.Has(i) {
			t.Fatalf("fresh Words has %d", i)
		}
		w.SetBit(i)
		if !w.Has(i) {
			t.Fatalf("SetBit(%d) lost", i)
		}
	}
	// Has is total: indices beyond the allocation are simply absent.
	if w.Has(1000) {
		t.Fatal("out-of-range Has must be false")
	}
	g := w.Grow(256)
	if len(g) != 4 {
		t.Fatalf("Grow(256) = %d words", len(g))
	}
	for _, i := range []uint32{0, 63, 64, 129} {
		if !g.Has(i) {
			t.Fatalf("Grow dropped bit %d", i)
		}
	}
	// Grow copies: mutating the grown row must not touch the original.
	g.SetBit(200)
	if w.Has(200) {
		t.Fatal("Grow aliased the original words")
	}
}

func TestWordsIntersects(t *testing.T) {
	a := MakeWords(128)
	b := MakeWords(64)
	if a.Intersects(b) {
		t.Fatal("empty rows intersect")
	}
	a.SetBit(70) // beyond b's length
	if a.Intersects(b) || b.Intersects(a) {
		t.Fatal("intersection must respect the shorter row")
	}
	b.SetBit(3)
	a.SetBit(3)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("shared bit not detected")
	}
}
