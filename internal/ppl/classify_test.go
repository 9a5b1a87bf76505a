package ppl_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/swarm"
)

// referenceClassify is Classify as one pass over specification and query,
// as it was before the specification part was split off to be computed
// once per specification.
func referenceClassify(n *ppl.PDMS, query lang.CQ) ppl.Classification {
	var out ppl.Classification
	acyclic, cycle := n.AcyclicInclusionsOnly()
	if !acyclic {
		out.Class = ppl.Undecidable
		out.Reasons = append(out.Reasons,
			fmt.Sprintf("inclusion peer mappings are cyclic (witness: %s)", strings.Join(cycle, " -> ")))
		return out
	}
	out.Reasons = append(out.Reasons, "inclusion peer mappings are acyclic (Definition 3.1)")
	class := ppl.PTime
	coNP := func(reason string) {
		class = ppl.CoNP
		out.Reasons = append(out.Reasons, reason)
	}
	for _, m := range n.Mappings() {
		if m.Kind == ppl.Equality && (m.LHS.HasProjection() || m.RHS.HasProjection()) {
			coNP(fmt.Sprintf("equality peer mapping %s contains projections (Thm 3.2)", m.ID))
		}
	}
	for _, s := range n.Storages() {
		if s.Kind == ppl.StorageEquality && s.Query.HasProjection() {
			coNP(fmt.Sprintf("equality storage description %s contains projections (Thm 3.2(2))", s.ID))
		}
	}
	defHeads := map[string]string{}
	for _, m := range n.Mappings() {
		if m.Kind == ppl.Definitional {
			defHeads[m.Rule.Head.Pred] = m.ID
		}
	}
	for _, m := range n.Mappings() {
		if m.Kind == ppl.Definitional {
			continue
		}
		for _, a := range m.RHS.Body {
			if defID, ok := defHeads[a.Pred]; ok {
				coNP(fmt.Sprintf("definitional head %s (from %s) appears on RHS of %s (Thm 3.2)", a.Pred, defID, m.ID))
			}
		}
	}
	for _, s := range n.Storages() {
		for _, a := range s.Query.Body {
			if defID, ok := defHeads[a.Pred]; ok {
				coNP(fmt.Sprintf("definitional head %s (from %s) appears in storage description %s (Thm 3.2)", a.Pred, defID, s.ID))
			}
		}
	}
	for _, m := range n.Mappings() {
		if m.Kind != ppl.Definitional && (len(m.LHS.Comps) > 0 || len(m.RHS.Comps) > 0) {
			coNP(fmt.Sprintf("non-definitional peer mapping %s uses comparison predicates (Thm 3.3(2))", m.ID))
		}
	}
	if len(query.Comps) > 0 {
		coNP("query uses comparison predicates (Thm 3.3(2))")
	}
	if class == ppl.PTime {
		out.Reasons = append(out.Reasons,
			"equalities projection-free, definitional heads isolated, comparisons confined (Thms 3.2(1), 3.3(1))")
	}
	out.Class = class
	return out
}

// classifyCase is one specification with the queries to classify over it.
type classifyCase struct {
	name    string
	spec    string
	queries []string
}

// fuzzCorpusCases reads the committed FuzzPPLReformulate corpus.
func fuzzCorpusCases(t *testing.T) []classifyCase {
	t.Helper()
	dir := filepath.Join("..", "core", "testdata", "fuzz", "FuzzPPLReformulate")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []classifyCase
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var args []string
		for _, line := range strings.Split(string(raw), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				args = append(args, s)
			}
		}
		if len(args) != 2 {
			t.Fatalf("%s: %d string arguments, want 2", e.Name(), len(args))
		}
		out = append(out, classifyCase{"corpus/" + e.Name(), args[0], []string{args[1]}})
	}
	return out
}

// TestClassifyMatchesOnePass checks that ClassifySpec followed by
// SpecClass.Query — and so Classify — yields exactly the one-pass
// classification (class and reasons, in order) on the fuzz corpus, the
// swarm topologies and specifications reaching every class.
func TestClassifyMatchesOnePass(t *testing.T) {
	cases := fuzzCorpusCases(t)
	for _, topo := range []swarm.Topology{swarm.Chain, swarm.SmallWorld} {
		for _, peers := range []int{16, 64} {
			spec, err := swarm.Generate(swarm.Params{Peers: peers, Topology: topo, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, classifyCase{fmt.Sprintf("swarm/%s/%d", topo, peers), spec.Mediator, []string{
				spec.Query,
				fmt.Sprintf(`q(x, y) :- %s(x, y), x < y`, swarm.PeerRel(peers/2)),
			}})
		}
	}
	cases = append(cases,
		classifyCase{"cyclic", "include A:R(x) in B:S(x)\ninclude B:S(x) in A:R(x)\nstorage S.s(x) in A:R(x)",
			[]string{`q(x) :- A:R(x)`, `q(x) :- A:R(x), x > 3`}},
		classifyCase{"co-NP", "equal A:R(x) and B:S(x, y)\ndefine D:T(x) :- A:R(x)\ninclude C:U(x) in D:T(x), x > 1\nstorage S.s(x) = C:U(x)",
			[]string{`q(x) :- A:R(x)`, `q(x) :- A:R(x), x > 3`}},
	)
	classes := map[ppl.Complexity]int{}
	for _, c := range cases {
		res, err := parser.Parse(c.spec)
		if err != nil {
			if strings.HasPrefix(c.name, "corpus/") {
				continue // a fuzz input the parser rejects
			}
			t.Fatalf("%s: %v", c.name, err)
		}
		queries := []lang.CQ{{}} // the query-independent analysis
		for _, qs := range c.queries {
			if q, err := parser.ParseQuery(qs); err == nil {
				queries = append(queries, q)
			}
		}
		spec := res.PDMS.ClassifySpec()
		for _, q := range queries {
			want := referenceClassify(res.PDMS, q)
			for name, got := range map[string]ppl.Classification{
				"Classify":             res.PDMS.Classify(q),
				"ClassifySpec().Query": spec.Query(q),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, query %s: %s = %#v, want %#v", c.name, q, name, got, want)
				}
			}
			classes[want.Class]++
		}
	}
	if len(classes) != 3 {
		t.Fatalf("classifications checked per class: %v, want all three classes", classes)
	}
}

// TestSpecClassQueryOwnsReasons checks that a classification's reasons
// are the caller's: editing one query's reasons leaves the shared
// specification part, and every later classification, untouched. The
// specification is undecidable, so Query appends no reason of its own.
func TestSpecClassQueryOwnsReasons(t *testing.T) {
	res, err := parser.Parse("include A:R(x) in B:S(x)\ninclude B:S(x) in A:R(x)")
	if err != nil {
		t.Fatal(err)
	}
	spec := res.PDMS.ClassifySpec()
	first := spec.Query(lang.CQ{})
	first.Reasons[0] = "edited"
	_ = append(first.Reasons[:1], "appended")
	if got := spec.Query(lang.CQ{}); !reflect.DeepEqual(got, res.PDMS.Classify(lang.CQ{})) || got.Reasons[0] == "edited" {
		t.Fatalf("shared reasons changed through a returned classification: %v", got)
	}
}
