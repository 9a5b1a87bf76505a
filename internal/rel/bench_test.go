package rel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lang"
)

// buildChainInstance makes a random edge relation for join benchmarks.
func buildChainInstance(n int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := NewInstance()
	for i := 0; i < n; i++ {
		ins.MustAdd("E", fmt.Sprintf("n%d", rng.Intn(n/2+1)), fmt.Sprintf("n%d", rng.Intn(n/2+1)))
	}
	return ins
}

func BenchmarkEvalCQTwoHopJoin(b *testing.B) {
	ins := buildChainInstance(500, 1)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("z")),
		Body: []lang.Atom{
			lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("E", lang.Var("y"), lang.Var("z")),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalCQ(q, ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCQSelective(b *testing.B) {
	ins := buildChainInstance(2000, 2)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Const("n3"), lang.Var("y"))},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalCQ(q, ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalDatalogTransitiveClosure(b *testing.B) {
	rules := []lang.CQ{
		{Head: lang.NewAtom("T", lang.Var("x"), lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("y"))}},
		{Head: lang.NewAtom("T", lang.Var("x"), lang.Var("z")),
			Body: []lang.Atom{
				lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
				lang.NewAtom("T", lang.Var("y"), lang.Var("z"))}},
	}
	ins := NewInstance()
	for i := 0; i < 60; i++ {
		ins.MustAdd("E", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalDatalog(rules, ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistinctSorted is the UCQ union shaped like the join-scan
// workload's answer merge: 144 disjunct groups of 30 two-column rows each,
// in arrival (unsorted) order, neighbouring groups overlapping by 8 rows,
// for 3168 distinct answers out of 4320 rows.
func BenchmarkDistinctSorted(b *testing.B) {
	const (
		groups   = 144
		perGroup = 30
		stride   = 22
	)
	rng := rand.New(rand.NewSource(1))
	gs := make([][]Tuple, groups)
	for g := range gs {
		for i := 0; i < perGroup; i++ {
			n := (g*stride + i) % (groups * stride)
			gs[g] = append(gs[g], Tuple{fmt.Sprintf("v%d", n/8), fmt.Sprintf("v%d", n)})
		}
		rng.Shuffle(len(gs[g]), func(i, j int) { gs[g][i], gs[g][j] = gs[g][j], gs[g][i] })
	}
	if n := len(DistinctSorted(gs...)); n != groups*stride {
		b.Fatalf("distinct answers = %d, want %d", n, groups*stride)
	}
	b.ReportAllocs()
	for b.Loop() {
		DistinctSorted(gs...)
	}
}
