package rel_test

// External test package: the engine imports rel.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/rel"
)

// TestStreamCQKeepsNULHeads: the engine's head dedup keys on Tuple.Key, so
// two distinct heads that differ only in where a NUL sits relative to the
// column boundary must both stream out.
func TestStreamCQKeepsNULHeads(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("S", "a\x00b", "c", "1")
	ins.MustAdd("S", "a", "b\x00c", "2")
	ins.MustAdd("S", "a", "b\x00c", "3")
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("S", lang.Var("x"), lang.Var("y"), lang.Var("z"))},
	}
	var got []rel.Tuple
	if err := engine.New(ins).StreamCQ(q, func(tu rel.Tuple) error {
		got = append(got, tu)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []rel.Tuple{{"a\x00b", "c"}, {"a", "b\x00c"}}
	if len(got) != len(want) || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("StreamCQ heads = %q, want %q", got, want)
	}
}
