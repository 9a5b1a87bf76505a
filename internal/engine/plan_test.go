package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lang"
)

// TestOrderBodyStatsSelectivity: with equal cardinalities the old uniform
// discount cannot tell a nearly-unique join column from a 5-value one; the
// distinct-value model must order the selective atom first.
func TestOrderBodyStatsSelectivity(t *testing.T) {
	body := []lang.Atom{
		lang.NewAtom("A", lang.Var("x"), lang.Var("y")),
		lang.NewAtom("Fat", lang.Var("y"), lang.Var("z")),  // 5 distinct y
		lang.NewAtom("Lean", lang.Var("y"), lang.Var("w")), // ~unique y
	}
	stats := map[string]ColStats{
		"A":    {Card: 10},
		"Fat":  {Card: 50000, Distinct: []float64{5, 25000}},
		"Lean": {Card: 50000, Distinct: []float64{50000, 50000}},
	}
	order := OrderBodyStats(body, func(p string) ColStats { return stats[p] }, -1)
	if order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("stats order = %v, want [0 2 1] (Lean before Fat)", order)
	}
	// The uniform model ties Fat and Lean on equal cardinality and falls
	// back to body order, picking the exploding atom first.
	uni := OrderBody(body, func(p string) int { return stats[p].Card }, -1)
	if uni[1] != 1 {
		t.Fatalf("uniform order = %v, want Fat (1) second — the blind spot stats fix", uni)
	}
}

// TestOrderBodyUniformUnchanged: OrderBody (the cards-only wrapper the
// distributed executor uses) must reproduce the legacy discount ordering.
func TestOrderBodyUniformUnchanged(t *testing.T) {
	body := []lang.Atom{
		lang.NewAtom("Big", lang.Var("x"), lang.Var("y")),
		lang.NewAtom("Small", lang.Var("y")),
		lang.NewAtom("Mid", lang.Const("c"), lang.Var("z")),
	}
	cards := map[string]int{"Big": 10000, "Small": 3, "Mid": 1000}
	order := OrderBody(body, func(p string) int { return cards[p] }, -1)
	// Small (cost 4) first, then Mid (1001/8 ≈ 125 with its constant),
	// then Big (10001/8 with y bound).
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("uniform order = %v, want [1 2 0]", order)
	}
}

// TestStatsVsUniformSameAnswers: both cost models must return identical
// answers on the corpus (ordering is a performance choice only).
func TestStatsVsUniformSameAnswers(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(31000 + seed)))
		domain := 3 + rng.Intn(5)
		ins := randInstance(rng, domain)
		stats := New(ins)
		uniform := New(ins)
		uniform.uniformCost = true
		for k := 0; k < 3; k++ {
			q := randCQ(rng, domain)
			a, errA := stats.EvalCQ(q)
			b, errB := uniform.EvalCQ(q)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d: error mismatch on %s: %v vs %v", seed, q, errA, errB)
			}
			if errA == nil && !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: cost model changed answers on %s:\nstats   %v\nuniform %v", seed, q, a, b)
			}
		}
	}
}
