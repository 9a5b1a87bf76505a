package core

import (
	"testing"

	"repro/internal/rel"
	"repro/internal/workload"
)

// TestUselessPathRuleSkipsAndPreservesAnswers reproduces the Section 4.3
// motif: p1 appears in a single inclusion description V ⊆ p1, p2 and p2 is
// replicated in many views. The sibling p2 need not be expanded, and the
// answers must not change.
func TestUselessPathRuleSkipsAndPreservesAnswers(t *testing.T) {
	src := `
storage S.v(x, y) in A:P1(x, s), A:P2(s, y)
storage S.w1(s, y) in A:P2(s, y)
storage S.w2(s, y) in A:P2(s, y)
storage S.w3(s, y) in A:P2(s, y)
fact S.v("a", "b")
fact S.w1("k", "b")
`
	query := `q(x, y) :- A:P1(x, s), A:P2(s, y)`

	rOn, res := setup(t, src, Options{})
	outOn := reform(t, rOn, query)
	rOff, _ := setup(t, src, Options{NoUselessPath: true})
	outOff := reform(t, rOff, query)

	rowsOn := evalReformulated(t, outOn, res.Data)
	rowsOff := evalReformulated(t, outOff, res.Data)
	assertSameTuples(t, rowsOn, rowsOff, "useless-path rule changed answers")

	if outOn.Stats.UselessSkipped == 0 {
		t.Fatalf("useless-path rule never fired: %+v", outOn.Stats)
	}
	if outOn.Stats.Nodes() >= outOff.Stats.Nodes() {
		t.Fatalf("rule saved no nodes: on=%d off=%d", outOn.Stats.Nodes(), outOff.Stats.Nodes())
	}
}

// TestUselessPathOracleAgreement: with the rule on, answers still equal the
// chase oracle's certain answers.
func TestUselessPathOracleAgreement(t *testing.T) {
	src := `
storage S.v(x, y) in A:P1(x, s), A:P2(s, y)
storage S.w1(s, y) in A:P2(s, y)
storage S.w2(s, y) in A:P2(s, y)
fact S.v("a", "b")
fact S.w1("k", "b")
fact S.w2("k", "c")
`
	oracleCheck(t, src, `q(x, y) :- A:P1(x, s), A:P2(s, y)`, Options{})
}

// TestPropagateUpKillsConflictingGoal: every expansion of A:R carries a
// range constraint incompatible with the query's, so upward propagation
// must detect the dead end during construction.
func TestPropagateUpKillsConflictingGoal(t *testing.T) {
	src := `
storage S.low(x) in A:R(x), x < 10
storage S.mid(x) in A:R(x), x < 50
fact S.low("5")
fact S.mid("20")
`
	query := `q(x) :- A:R(x), x > 90`

	rOn, res := setup(t, src, Options{})
	outOn := reform(t, rOn, query)
	rOff, _ := setup(t, src, Options{NoPropagateUp: true})
	outOff := reform(t, rOff, query)

	rowsOn := evalReformulated(t, outOn, res.Data)
	rowsOff := evalReformulated(t, outOff, res.Data)
	assertSameTuples(t, rowsOn, rowsOff, "propagate-up changed answers")
	if len(rowsOn) != 0 {
		t.Fatalf("rows = %v, want none (ranges disjoint)", rowsOn)
	}
}

// TestPropagateUpNeutralWithoutComparisons: on comparison-free workloads
// the optimization must not alter results or node counts.
func TestPropagateUpNeutralWithoutComparisons(t *testing.T) {
	w, err := workload.Generate(workload.Params{
		Peers: 12, Diameter: 3, DefRatio: 0.25, FactsPerStore: 3, DomainSize: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) (Stats, []rel.Tuple) {
		r := New(w.PDMS, opts)
		out, err := r.Reformulate(w.Query, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := rel.EvalUCQ(out.UCQ, w.Data)
		if err != nil {
			t.Fatal(err)
		}
		return out.Stats, rows
	}
	stOn, rowsOn := run(Options{})
	stOff, rowsOff := run(Options{NoPropagateUp: true})
	assertSameTuples(t, rowsOn, rowsOff, "propagate-up changed answers on plain workload")
	if stOn.Nodes() != stOff.Nodes() {
		t.Fatalf("node counts differ on comparison-free workload: %d vs %d", stOn.Nodes(), stOff.Nodes())
	}
}

// TestMemoFiresOnDeadEndWorkload: with reduced store coverage, repeated
// dead-end patterns must produce memo hits and shrink the tree. The memo
// key is the full expansion context (parent label, self label, siblings),
// so contexts must actually recur for hits: pure-inclusion workloads
// (dd=0) have single-child rule nodes below the query, whose contexts
// repeat across replicated paths.
func TestMemoFiresOnDeadEndWorkload(t *testing.T) {
	w, err := workload.Generate(workload.Params{
		Peers: 20, Diameter: 5, DefRatio: 0, StoreCoverage: 0.4, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// NoPruneSubsumed: the hopeless-predicate prune (prune.go) kills this
	// workload's dead ends before the memo sees them; disable it so the test
	// measures the memo in isolation.
	rOn := New(w.PDMS, Options{NoPruneSubsumed: true})
	stOn, err := rOn.BuildTree(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	rOff := New(w.PDMS, Options{NoMemo: true, NoPruneSubsumed: true})
	stOff, err := rOff.BuildTree(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	if stOn.MemoHits == 0 {
		t.Fatalf("memo never hit: %+v", stOn)
	}
	if stOn.Nodes() > stOff.Nodes() {
		t.Fatalf("memo grew the tree: %d vs %d", stOn.Nodes(), stOff.Nodes())
	}
}

// TestMemoPreservesAnswersOnDeadEndWorkload: memoized construction must not
// change the answers.
func TestMemoPreservesAnswersOnDeadEndWorkload(t *testing.T) {
	w, err := workload.Generate(workload.Params{
		Peers: 16, Diameter: 3, DefRatio: 0, StoreCoverage: 0.5,
		FactsPerStore: 3, DomainSize: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]rel.Tuple
	for _, opts := range []Options{{}, {NoMemo: true}} {
		r := New(w.PDMS, opts)
		out, err := r.Reformulate(w.Query, nil)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := rel.EvalUCQ(out.UCQ, w.Data)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, rr)
	}
	assertSameTuples(t, rows[0], rows[1], "memo changed answers")
}
