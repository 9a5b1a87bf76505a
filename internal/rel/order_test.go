package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/lang"
)

// nulPairs are same-arity tuple pairs that differ only in where a NUL sits
// relative to the column boundary: a NUL-joined key cannot tell them apart.
var nulPairs = [][2]Tuple{
	{{"a\x00b", "c"}, {"a", "b\x00c"}},
	{{"a\x00", "b"}, {"a", "\x00b"}},
	{{"\x00", ""}, {"", "\x00"}},
	{{"a\x00\x00b", "c"}, {"a", "\x00b\x00c"}},
	{{"a\x00\x01", "b"}, {"a", "\x01\x00b"}},
}

// TestKeyInjectiveWithNUL is the regression test for NUL-containing values:
// Key must give distinct same-arity tuples distinct keys, so Insert keeps
// both tuples of each pair, Contains finds each, and set-semantics head
// dedup keeps both heads.
func TestKeyInjectiveWithNUL(t *testing.T) {
	for _, p := range nulPairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("Key(%q) == Key(%q)", p[0], p[1])
		}
		r := NewRelation("R", 2)
		for _, tu := range p {
			if nw, err := r.Insert(tu); err != nil || !nw {
				t.Errorf("Insert(%q) = %v, %v after inserting %q; want new", tu, nw, err, p[0])
			}
		}
		for _, tu := range p {
			if !r.Contains(tu) {
				t.Errorf("Contains(%q) = false", tu)
			}
		}
		if r.Len() != 2 {
			t.Errorf("Len = %d after inserting %q, want 2", r.Len(), p)
		}
		// Two stored 3-tuples whose projections onto the first two columns
		// are the pair: head dedup must keep both heads.
		ins := NewInstance()
		ins.MustAdd("S", p[0][0], p[0][1], "1")
		ins.MustAdd("S", p[1][0], p[1][1], "2")
		q := lang.CQ{
			Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("S", lang.Var("x"), lang.Var("y"), lang.Var("z"))},
		}
		if got, err := EvalCQ(q, ins); err != nil || len(got) != 2 {
			t.Errorf("EvalCQ heads of %q = %q (%v), want both", p, got, err)
		}
	}
	if got := (Tuple{"a", "b"}).Key(); got != "a\x00\x00b" {
		t.Errorf("Key(a, b) = %q", got)
	}
}

// TestCompareMatchesJoinedOrder: on NUL-free values rel.Compare orders
// tuples exactly as the NUL-joined string order did, including tuples of
// different arity whose values are prefixes of one another.
func TestCompareMatchesJoinedOrder(t *testing.T) {
	joined := func(a, b Tuple) int {
		return strings.Compare(strings.Join(a, "\x00"), strings.Join(b, "\x00"))
	}
	check := func(a, b Tuple) {
		t.Helper()
		want, got := joined(a, b), Compare(a, b)
		if want == 0 && len(a) != len(b) {
			// The joined order ties () with (""): only different arities
			// with empty values can tie without being equal.
			return
		}
		if got != want {
			t.Fatalf("Compare(%q, %q) = %d, joined order says %d", a, b, got, want)
		}
	}
	for _, p := range [][2]Tuple{
		{{"a", "b"}, {"ab"}},
		{{"a"}, {"a", "b"}},
		{{"a", ""}, {"a"}},
		{{"ab", "c"}, {"a", "bc"}},
		{{"a", "\x01"}, {"a\x01"}},
		{{"", "b"}, {"b"}},
		{{"a", "b"}, {"a", "b"}},
		{{"a\xff"}, {"a", "b"}},
	} {
		check(p[0], p[1])
		check(p[1], p[0])
	}
	rng := rand.New(rand.NewSource(1))
	randTuple := func() Tuple {
		tu := make(Tuple, 1+rng.Intn(3))
		for i := range tu {
			b := make([]byte, rng.Intn(4))
			for j := range b {
				// A five-byte alphabet with the bytes just above the NUL
				// separator and a high byte: ties and prefixes come up
				// often.
				b[j] = []byte{1, 2, 'a', 'b', 0xff}[rng.Intn(5)]
			}
			tu[i] = string(b)
		}
		return tu
	}
	for i := 0; i < 200000; i++ {
		check(randTuple(), randTuple())
	}
}

// TestDistinctSortedMatchesReference checks DistinctSorted against a
// map-plus-sort reference on seeded random groups: duplicates within and
// across groups, empty groups, and NUL-containing values. The groups must
// come back unmodified.
func TestDistinctSortedMatchesReference(t *testing.T) {
	vals := []string{"", "a", "b", "ab", "a\x00", "\x00b", "a\x00b", "\x00", "\x01"}
	less := func(a, b Tuple) bool {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return len(a) < len(b)
	}
	reference := func(groups [][]Tuple) []Tuple {
		seen := map[string]bool{}
		var out []Tuple
		for _, g := range groups {
			for _, tu := range g {
				if k := fmt.Sprintf("%q", []string(tu)); !seen[k] {
					seen[k] = true
					out = append(out, tu)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
		return out
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		groups := make([][]Tuple, rng.Intn(6))
		for g := range groups {
			for n := rng.Intn(12); n > 0; n-- {
				tu := Tuple{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
				groups[g] = append(groups[g], tu)
				if rng.Intn(4) == 0 {
					groups[g] = append(groups[g], slices.Clone(tu))
				}
			}
		}
		before := make([][]Tuple, len(groups))
		for g := range groups {
			before[g] = slices.Clone(groups[g])
		}
		got, want := DistinctSorted(groups...), reference(groups)
		if !slices.EqualFunc(got, want, Tuple.Equal) {
			t.Fatalf("trial %d: DistinctSorted(%q) = %q, want %q", trial, groups, got, want)
		}
		for g := range groups {
			if !slices.EqualFunc(groups[g], before[g], Tuple.Equal) {
				t.Fatalf("trial %d: group %d modified: %q, was %q", trial, g, groups[g], before[g])
			}
		}
	}
	if got := DistinctSorted(); got != nil {
		t.Fatalf("DistinctSorted() = %v, want nil", got)
	}
}
