package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ppl"
	"repro/internal/rel"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Params{Peers: 0, Diameter: 1}); err == nil {
		t.Fatal("zero peers accepted")
	}
	if _, err := Generate(Params{Peers: 4, Diameter: 9}); err == nil {
		t.Fatal("diameter > peers accepted")
	}
	if _, err := Generate(Params{Peers: 4, Diameter: 2, DefRatio: 1.5}); err == nil {
		t.Fatal("bad ratio accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Peers: 12, Diameter: 3, DefRatio: 0.25, Seed: 7}
	w1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Query.String() != w2.Query.String() {
		t.Fatalf("queries differ: %v vs %v", w1.Query, w2.Query)
	}
	s1, s2 := w1.PDMS.Stats(), w2.PDMS.Stats()
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
}

func TestGenerateShape(t *testing.T) {
	w, err := Generate(Params{Peers: 96, Diameter: 4, DefRatio: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := w.PDMS.Stats()
	if st.Peers < 96 { // peer peers + store peers
		t.Fatalf("peers = %d", st.Peers)
	}
	if len(w.Strata) != 4 {
		t.Fatalf("strata = %d", len(w.Strata))
	}
	// Replication mappings per non-top relation (default 2).
	nonTop := 0
	for s := 1; s < len(w.Strata); s++ {
		nonTop += len(w.Strata[s])
	}
	if st.Definitional+st.Inclusions != 2*nonTop {
		t.Fatalf("mappings = %d+%d, want %d", st.Definitional, st.Inclusions, 2*nonTop)
	}
	// Ratio in a plausible band (binomial, n=144, p=.25).
	ratio := float64(st.Definitional) / float64(2*nonTop)
	if ratio < 0.10 || ratio > 0.45 {
		t.Fatalf("definitional ratio = %v", ratio)
	}
	// Storage descriptions at every bottom relation.
	if st.StorageDescrs != len(w.Strata[3]) || len(w.Stored) != st.StorageDescrs {
		t.Fatalf("storage = %d, bottom = %d", st.StorageDescrs, len(w.Strata[3]))
	}
	// Query over the top stratum.
	top := map[string]bool{}
	for _, r := range w.Strata[0] {
		top[r] = true
	}
	for _, a := range w.Query.Body {
		if !top[a.Pred] {
			t.Fatalf("query atom %v not over top stratum", a)
		}
	}
	if err := w.PDMS.ValidateQuery(w.Query); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateAcyclicAndClassified(t *testing.T) {
	// Strata only feed adjacent levels, so generated PDMS are always
	// acyclic; with DefRatio = 0 they are moreover PTIME (pure inclusion).
	// With DefRatio > 0 a definitional head may appear on an inclusion's
	// RHS, which Theorem 3.2 places in co-NP — the paper's experiments mix
	// dd% freely because they measure reformulation performance, so both
	// classes are acceptable, but never Undecidable.
	w, err := Generate(Params{Peers: 24, Diameter: 4, DefRatio: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if ok, cyc := w.PDMS.AcyclicInclusions(); !ok {
		t.Fatalf("generated PDMS cyclic: %v", cyc)
	}
	if cl := w.PDMS.Classify(w.Query); cl.Class == ppl.Undecidable {
		t.Fatalf("classification = %v", cl)
	}
	pure, err := Generate(Params{Peers: 24, Diameter: 4, DefRatio: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if cl := pure.PDMS.Classify(pure.Query); cl.Class != ppl.PTime {
		t.Fatalf("pure-inclusion classification = %v", cl)
	}
}

func TestGenerateEndToEndReformulation(t *testing.T) {
	w, err := Generate(Params{
		Peers: 12, Diameter: 3, DefRatio: 0.3, Seed: 5, FactsPerStore: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := core.New(w.PDMS, core.Options{})
	out, err := r.Reformulate(w.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The reformulation must be evaluable over the stored data (whether or
	// not it has answers depends on the random topology).
	if out.UCQ.Len() > 0 {
		if _, err := rel.EvalUCQ(out.UCQ, w.Data); err != nil {
			t.Fatalf("evaluating reformulation: %v", err)
		}
	}
	if out.Stats.Nodes() == 0 {
		t.Fatal("no tree built")
	}
}

func TestGenerateFactsPopulated(t *testing.T) {
	w, err := Generate(Params{Peers: 6, Diameter: 2, FactsPerStore: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Data.Size() == 0 {
		t.Fatal("no facts generated")
	}
	for _, s := range w.Stored {
		if w.Data.Relation(s) == nil {
			t.Fatalf("store %s empty", s)
		}
	}
}

func TestGenerateTreeGrowsWithDiameter(t *testing.T) {
	// The Figure 3 headline shape: node count grows with diameter.
	var prev int
	for _, d := range []int{1, 2, 3, 4} {
		w, err := Generate(Params{Peers: 24, Diameter: d, DefRatio: 0.1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		r := core.New(w.PDMS, core.Options{})
		st, err := r.BuildTree(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1 && st.Nodes() <= prev/4 {
			t.Fatalf("tree shrank sharply at diameter %d: %d vs %d", d, st.Nodes(), prev)
		}
		prev = st.Nodes()
	}
}
