package containment_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/swarm"
)

// referenceContains is Contains as it was before queries were prepared
// once per RemoveRedundant call: every pair renames q2 apart, matches the
// heads, builds q1's constraint set and searches, with no predicate
// prefilter.
func referenceContains(q1, q2 lang.CQ) bool {
	if q1.Head.Arity() != q2.Head.Arity() {
		return false
	}
	ren := lang.NewSubst()
	vs := lang.NewVarSupply("_cm")
	for _, v := range q2.Vars() {
		ren[v.Name] = vs.Fresh()
	}
	q2 = q2.Apply(ren)
	base, ok := lang.Match(q2.Head, q1.Head, nil)
	if !ok {
		h2 := q2.Head
		h2.Pred = q1.Head.Pred
		base, ok = lang.Match(h2, q1.Head, nil)
		if !ok {
			return false
		}
	}
	c1 := constraints.New(q1.Comps...)
	if !c1.Satisfiable() {
		return true
	}
	var rec func(i int, s lang.Subst) bool
	rec = func(i int, s lang.Subst) bool {
		if i == len(q2.Body) {
			for _, c := range q2.Comps {
				if !c1.Implies(s.ApplyComparison(c)) {
					return false
				}
			}
			return true
		}
		for _, tgt := range q1.Body {
			if s2, ok := lang.Match(q2.Body[i], tgt, s); ok && rec(i+1, s2) {
				return true
			}
		}
		return false
	}
	return rec(0, base)
}

// referenceRemoveRedundant is the unprepared pairwise RemoveRedundant.
func referenceRemoveRedundant(u lang.UCQ) lang.UCQ {
	var out lang.UCQ
	for i, d := range u.Disjuncts {
		redundant := false
		for j, e := range u.Disjuncts {
			if i == j {
				continue
			}
			if referenceContains(d, e) {
				if referenceContains(e, d) && i < j {
					continue
				}
				redundant = true
				break
			}
		}
		if !redundant {
			out.Add(d)
		}
	}
	if out.Len() == 0 && u.Len() > 0 {
		out.Add(u.Disjuncts[0])
	}
	return out
}

// checkSameAsReference asserts that RemoveRedundant keeps exactly the
// disjuncts, in exactly the order, that the reference keeps.
func checkSameAsReference(t *testing.T, name string, u lang.UCQ) {
	t.Helper()
	got, want := containment.RemoveRedundant(u), referenceRemoveRedundant(u)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RemoveRedundant of %d disjuncts differs from the reference:\ngot  (%d)\n%s\nwant (%d)\n%s",
			name, u.Len(), got.Len(), got, want.Len(), want)
	}
}

// fuzzCorpus reads the committed FuzzPPLReformulate corpus: one
// (specification, query) pair per file.
func fuzzCorpus(t testing.TB) map[string][2]string {
	t.Helper()
	dir := filepath.Join("..", "core", "testdata", "fuzz", "FuzzPPLReformulate")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][2]string{}
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
		out[e.Name()] = [2]string{args[0], args[1]}
	}
	return out
}

// redundantUCQ reformulates query over the specification with redundancy
// elimination off, returning the full union RemoveRedundant would see.
func redundantUCQ(t testing.TB, spec, query string, opts core.Options) (lang.UCQ, bool) {
	t.Helper()
	res, err := parser.Parse(spec)
	if err != nil {
		return lang.UCQ{}, false
	}
	q, err := parser.ParseQuery(query)
	if err != nil {
		return lang.UCQ{}, false
	}
	opts.KeepRedundant = true
	out, err := core.New(res.PDMS, opts).Reformulate(q, nil)
	if err != nil {
		return lang.UCQ{}, false
	}
	return out.UCQ, true
}

func TestRemoveRedundantMatchesReferenceOnFuzzCorpus(t *testing.T) {
	checked := 0
	for name, c := range fuzzCorpus(t) {
		for _, opts := range []core.Options{{}, {NoPruneSubsumed: true}} {
			opts.MaxNodes, opts.MaxRewritings = 20_000, 400
			if u, ok := redundantUCQ(t, c[0], c[1], opts); ok {
				checkSameAsReference(t, name, u)
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no corpus entry reformulated")
	}
}

func TestRemoveRedundantMatchesReferenceOnSwarms(t *testing.T) {
	checked := 0
	for _, topo := range []swarm.Topology{swarm.Chain, swarm.SmallWorld} {
		for _, peers := range []int{16, 64} {
			spec, err := swarm.Generate(swarm.Params{Peers: peers, Topology: topo, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			queries := []string{spec.Query}
			for _, k := range []int{1, peers / 2} {
				queries = append(queries, fmt.Sprintf(`q(y) :- %s("v3", y)`, swarm.PeerRel(k)))
			}
			optsList := []core.Options{{}}
			if peers == 16 {
				// A two-atom join squares the union. The unpruned build
				// keeps the replicated mappings' duplicate rewritings, which
				// exercises the mutual-containment tie-break.
				queries = append(queries, fmt.Sprintf(`q(y, z) :- %s("v3", y), %s(y, z)`, swarm.PeerRel(0), swarm.PeerRel(0)))
				optsList = append(optsList, core.Options{NoPruneSubsumed: true})
			}
			for _, q := range queries {
				for _, opts := range optsList {
					u, ok := redundantUCQ(t, spec.Mediator, q, opts)
					if !ok {
						t.Fatalf("%s/%d: %s does not reformulate", topo, peers, q)
					}
					if u.Len() > 512 {
						continue // beyond the size Reformulate minimizes
					}
					checkSameAsReference(t, fmt.Sprintf("%s/%d %s (unpruned %v)", topo, peers, q, opts.NoPruneSubsumed), u)
					checked++
				}
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d swarm unions checked", checked)
	}
}

func TestRemoveRedundantMatchesReferenceOnHandCases(t *testing.T) {
	x, y, z := lang.Var("x"), lang.Var("y"), lang.Var("z")
	atom := lang.NewAtom
	cq := func(head lang.Atom, comps []lang.Comparison, body ...lang.Atom) lang.CQ {
		return lang.CQ{Head: head, Body: body, Comps: comps}
	}
	gt := func(l lang.Term, c string) []lang.Comparison {
		return []lang.Comparison{{Op: lang.OpGT, L: l, R: lang.Const(c)}}
	}
	unsat := []lang.Comparison{{Op: lang.OpLT, L: x, R: x}}
	cases := []struct {
		name string
		ds   []lang.CQ
		want int // disjuncts kept
	}{
		{
			// The empty disjunct shares no predicate with the others, yet it
			// is contained in every disjunct with a matching head.
			"unsatisfiable disjunct with foreign predicates is dropped",
			[]lang.CQ{
				cq(atom("q", x), nil, atom("R", x, y)),
				cq(atom("q", x), unsat, atom("Z", x)),
				cq(atom("q", x), nil, atom("S", x, y)),
			},
			2,
		},
		{
			"mutually contained disjuncts keep the earlier index",
			[]lang.CQ{
				cq(atom("q", x), nil, atom("R", x, y), atom("R", x, z)),
				cq(atom("q", x), nil, atom("S", x)),
				cq(atom("q", y), nil, atom("R", y, z)),
			},
			2,
		},
		{
			"different head predicate names with the same arity",
			[]lang.CQ{
				cq(atom("q1", x), nil, atom("R", x, lang.Const("a"))),
				cq(atom("q2", x), nil, atom("R", x, y)),
				cq(atom("q3", x, y), nil, atom("R", x, y)),
			},
			2,
		},
		{
			"disjuncts that differ only in comparisons",
			[]lang.CQ{
				cq(atom("q", x), gt(y, "10"), atom("R", x, y)),
				cq(atom("q", x), gt(y, "5"), atom("R", x, y)),
				cq(atom("q", x), gt(y, "20"), atom("R", x, y)),
			},
			1,
		},
	}
	for _, c := range cases {
		u := lang.UCQ{Disjuncts: c.ds}
		checkSameAsReference(t, c.name, u)
		if got := containment.RemoveRedundant(u); got.Len() != c.want {
			t.Fatalf("%s: kept %d disjuncts, want %d:\n%s", c.name, got.Len(), c.want, got)
		}
	}
	// Earlier index wins: the first of the two equivalent R-disjuncts stays.
	u := lang.UCQ{Disjuncts: cases[1].ds}
	if got := containment.RemoveRedundant(u); !reflect.DeepEqual(got.Disjuncts[0], cases[1].ds[0]) {
		t.Fatalf("mutual containment kept %s, want the earlier %s", got.Disjuncts[0], cases[1].ds[0])
	}
}

// BenchmarkRemoveRedundant minimizes the 144-disjunct union of a two-atom
// join over a 16-peer chain (12 stores, so 12 × 12 rewritings) — the
// shape of join-scan's reformulations.
func BenchmarkRemoveRedundant(b *testing.B) {
	spec, err := swarm.Generate(swarm.Params{Peers: 16, Topology: swarm.Chain, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf(`q(y, z) :- %s("v3", y), %s(y, z)`, swarm.PeerRel(0), swarm.PeerRel(0))
	u, ok := redundantUCQ(b, spec.Mediator, q, core.Options{})
	if !ok || u.Len() != 144 {
		b.Fatalf("want a 144-disjunct union, got %d (ok %v)", u.Len(), ok)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		containment.RemoveRedundant(u)
	}
}
