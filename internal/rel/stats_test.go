package rel

import (
	"fmt"
	"math"
	"testing"
)

// TestStatsSketchAccuracy: the per-column distinct estimates must land
// within the sketch's error bounds — near exact in the linear-counting
// regime, within ~12% (several standard errors at 2^10 registers) at
// scale — and must be clamped to [1, Rows].
func TestStatsSketchAccuracy(t *testing.T) {
	const rows = 50000
	r := NewRelation("R", 3)
	for i := 0; i < rows; i++ {
		r.Insert(Tuple{
			fmt.Sprintf("id%d", i),    // all distinct
			fmt.Sprintf("g%d", i%100), // 100 distinct
			"constant",                // 1 distinct
		})
	}
	st := r.Stats()
	if st.Rows != rows || len(st.Distinct) != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	checks := []struct {
		col  int
		want float64
		tol  float64 // relative
	}{
		{0, rows, 0.12},
		{1, 100, 0.05},
		{2, 1, 0.01},
	}
	for _, c := range checks {
		got := st.Distinct[c.col]
		if math.Abs(got-c.want)/c.want > c.tol {
			t.Fatalf("col %d distinct estimate %.1f, want %.0f ±%.0f%%", c.col, got, c.want, c.tol*100)
		}
	}
	for col, d := range st.Distinct {
		if d < 1 || d > float64(st.Rows) {
			t.Fatalf("col %d estimate %.1f outside [1, %d]", col, d, st.Rows)
		}
	}
}

// TestStatsDeterministicAcrossLayouts: the estimate depends only on the
// value set — same data, different insert orders, same numbers (register
// updates are max operations, so order cannot leak in).
func TestStatsDeterministicAcrossLayouts(t *testing.T) {
	build := func(reversed bool) Stats {
		r := NewRelation("R", 2)
		for i := 0; i < 5000; i++ {
			j := i
			if reversed {
				j = 4999 - i
			}
			r.Insert(Tuple{fmt.Sprintf("k%d", j), fmt.Sprintf("v%d", j%37)})
		}
		return r.Stats()
	}
	a, b := build(false), build(true)
	for col := 0; col < 2; col++ {
		if a.Distinct[col] != b.Distinct[col] {
			t.Fatalf("col %d estimates differ across insert orders: %v %v",
				col, a.Distinct[col], b.Distinct[col])
		}
	}
}

// TestStatsEmptyAndSmall: empty relations report zero; tiny cardinalities
// are exact (linear counting with almost all registers empty).
func TestStatsEmptyAndSmall(t *testing.T) {
	r := NewRelation("R", 2)
	st := r.Stats()
	if st.Rows != 0 || st.Distinct[0] != 0 || st.Distinct[1] != 0 {
		t.Fatalf("empty Stats = %+v", st)
	}
	r.Insert(Tuple{"a", "x"})
	r.Insert(Tuple{"b", "x"})
	r.Insert(Tuple{"c", "x"})
	st = r.Stats()
	if math.Round(st.Distinct[0]) != 3 || math.Round(st.Distinct[1]) != 1 {
		t.Fatalf("small-count estimates not exact: %+v", st)
	}
}

// TestStatsDuplicatesIgnored: reinserting existing tuples moves nothing
// (set semantics reach the sketches too).
func TestStatsDuplicatesIgnored(t *testing.T) {
	r := NewRelation("R", 1)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{fmt.Sprintf("v%d", i%10)})
	}
	st := r.Stats()
	if st.Rows != 10 || math.Round(st.Distinct[0]) != 10 {
		t.Fatalf("Stats = %+v, want 10 rows / 10 distinct", st)
	}
}
