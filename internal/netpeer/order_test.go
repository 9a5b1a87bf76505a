package netpeer

import (
	"slices"
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
)

// sortedDistinct reports whether rows are strictly increasing in the
// canonical order: sorted, with no repeats.
func sortedDistinct(rows []rel.Tuple) bool {
	for i := 1; i < len(rows); i++ {
		if rel.Compare(rows[i-1], rows[i]) >= 0 {
			return false
		}
	}
	return true
}

// TestExecutorAnswersSortedDistinct pins the exported answer contract:
// Executor.EvalCQ and EvalUCQ return distinct tuples in rel.Compare order,
// although a disjunct's own rows — bind-join or push-down — come back in
// arrival order and may repeat; the one sort happens at the boundary.
func TestExecutorAnswersSortedDistinct(t *testing.T) {
	addrA := startServer(t, map[string][]rel.Tuple{
		"A.keys": {{"k3"}, {"k1"}, {"k2"}},
	})
	addrB := startServer(t, map[string][]rel.Tuple{
		"B.rows": {{"k3", "p5"}, {"k1", "p1"}, {"k3", "p4"}, {"k2", "p3"}, {"k1", "p2"}},
	})
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addrA, addrB} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	var u lang.UCQ
	for _, s := range []string{
		`q(x) :- A.keys(x), B.rows(x, y)`, // cross-peer bind-join
		`q(x) :- B.rows(x, y)`,            // push-down
		`q(y) :- B.rows(x, y)`,            // push-down
		`q(x) :- A.keys(x)`,               // push-down
	} {
		q, err := parser.ParseQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		u.Add(q)
	}

	raw, err := ex.evalCQ(u.Disjuncts[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 5 || sortedDistinct(raw) {
		t.Fatalf("bind-join disjunct rows %v: want all 5 join rows, unsorted and repeating", raw)
	}
	keys := []rel.Tuple{{"k1"}, {"k2"}, {"k3"}}
	for _, q := range u.Disjuncts[:2] {
		got, err := ex.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, keys, rel.Tuple.Equal) {
			t.Fatalf("EvalCQ(%s) = %v, want %v", q, got, keys)
		}
	}
	got, err := ex.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	want := []rel.Tuple{{"k1"}, {"k2"}, {"k3"}, {"p1"}, {"p2"}, {"p3"}, {"p4"}, {"p5"}}
	if !slices.EqualFunc(got, want, rel.Tuple.Equal) || !sortedDistinct(got) {
		t.Fatalf("EvalUCQ = %v, want %v", got, want)
	}
}
