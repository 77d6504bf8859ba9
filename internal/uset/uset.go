// Package uset provides small immutable sorted integer sets and fixed-width
// bitsets. They are the building blocks for abstract states throughout the
// analyses: type-state sets and must-alias sets in the type-state analysis,
// and site sets in the thread-escape analysis.
//
// Sets returned by this package share no mutable state with their inputs;
// every operation returns a fresh (or aliased-but-never-mutated) slice, so a
// Set can be used as a value in maps via its Key form or an intern table.
package uset

import (
	"sort"
	"strconv"
)

// Set is an immutable sorted set of non-negative integers. The zero value is
// the empty set. Callers must not mutate the underlying slice.
type Set []int

// New builds a Set from the given elements, deduplicating and sorting.
func New(elems ...int) Set {
	if len(elems) == 0 {
		return nil
	}
	s := make([]int, len(elems))
	copy(s, elems)
	sort.Ints(s)
	out := s[:1]
	for _, e := range s[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return Set(out)
}

// Len reports the number of elements.
func (s Set) Len() int { return len(s) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s) == 0 }

// Has reports whether x is a member.
func (s Set) Has(x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// Add returns s ∪ {x}.
func (s Set) Add(x int) Set {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s
	}
	out := make([]int, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// Remove returns s ∖ {x}.
func (s Set) Remove(x int) Set {
	i := sort.SearchInts(s, x)
	if i >= len(s) || s[i] != x {
		return s
	}
	if len(s) == 1 {
		return nil
	}
	out := make([]int, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return t
	}
	if len(t) == 0 {
		return s
	}
	out := make([]int, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Diff returns s ∖ t.
func (s Set) Diff(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(t) || s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	i, j := 0, 0
	for i < len(s) {
		if j >= len(t) {
			return false
		}
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Elems returns the elements in ascending order. The result must not be
// mutated.
func (s Set) Elems() []int { return s }

// Key returns a canonical string form usable as a map key.
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	b := make([]byte, 0, 4*len(s))
	for i, e := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

// String renders the set as {e1,e2,...}.
func (s Set) String() string { return "{" + s.Key() + "}" }

// Bits is a bitset over a small universe (up to 64 elements). It is used for
// type-state sets, which are tiny (the paper's properties have 2–4 states).
type Bits uint64

// BitsOf builds a Bits from element indices. Indices must be < 64.
func BitsOf(elems ...int) Bits {
	var b Bits
	for _, e := range elems {
		b |= 1 << uint(e)
	}
	return b
}

// Has reports whether element i is present.
func (b Bits) Has(i int) bool { return b&(1<<uint(i)) != 0 }

// Add returns b ∪ {i}.
func (b Bits) Add(i int) Bits { return b | 1<<uint(i) }

// Remove returns b ∖ {i}.
func (b Bits) Remove(i int) Bits { return b &^ (1 << uint(i)) }

// Union returns b ∪ c.
func (b Bits) Union(c Bits) Bits { return b | c }

// Intersect returns b ∩ c.
func (b Bits) Intersect(c Bits) Bits { return b & c }

// Empty reports whether the bitset is empty.
func (b Bits) Empty() bool { return b == 0 }

// Len reports the number of set bits.
func (b Bits) Len() int {
	n := 0
	for x := b; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Elems returns the indices of set bits in ascending order.
func (b Bits) Elems() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if b.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Words is a bitset over an unbounded universe of dense uint32 IDs, stored as
// 64-bit words. Unlike Bits it grows with the universe; the formula package
// uses it for the per-literal theory-memo rows of a formula.Universe. A Words
// value published to concurrent readers must no longer be mutated — extend it
// with Grow (which copies) and publish the copy instead.
type Words []uint64

// MakeWords returns a zeroed bitset with capacity for n bits.
func MakeWords(n int) Words { return make(Words, (n+63)>>6) }

// Has reports whether bit i is set. Bits beyond the allocated words read as
// unset, so a short row is a safe under-approximation.
func (w Words) Has(i uint32) bool {
	wi := int(i >> 6)
	return wi < len(w) && w[wi]&(1<<(i&63)) != 0
}

// SetBit sets bit i. The receiver must have been allocated with room for i
// (see MakeWords/Grow); it is a builder-side operation, not for shared rows.
func (w Words) SetBit(i uint32) { w[i>>6] |= 1 << (i & 63) }

// ClearBit clears bit i; bits beyond the allocated words are already unset,
// so out-of-range indices are a no-op. A builder-side operation like SetBit.
func (w Words) ClearBit(i uint32) {
	if wi := int(i >> 6); wi < len(w) {
		w[wi] &^= 1 << (i & 63)
	}
}

// Grow returns a copy of w with capacity for at least n bits. The receiver is
// left untouched, so rows already visible to concurrent readers stay frozen.
func (w Words) Grow(n int) Words {
	out := MakeWords(n)
	copy(out, w)
	return out
}

// Intersects reports whether w and v share a set bit.
func (w Words) Intersects(v Words) bool {
	n := len(w)
	if len(v) < n {
		n = len(v)
	}
	for i := 0; i < n; i++ {
		if w[i]&v[i] != 0 {
			return true
		}
	}
	return false
}
