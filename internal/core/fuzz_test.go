package core

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/rel"
)

// FuzzPPLReformulate is the reformulate-vs-chase differential under fuzzed
// PPL specifications (the carried-over ROADMAP item): for any specification
// and query the fuzzer can assemble, reformulation must never panic, its
// rewriting must evaluate, and its answers must agree with the chase oracle
// — exact certain-answer equality on PTIME specifications, soundness
// (answers ⊆ canonical-instance answers) outside the tractable fragment.
// The pruned and seed (unpruned) builds are both checked, so the fuzzer
// also hunts for inputs where the deep-topology pruning changes answers.
//
// Budget caps keep each exec fast; a build that hits the node or rewriting
// cap is skipped rather than compared (a truncated union is legitimately
// incomplete). The committed corpus under testdata/fuzz seeds the shapes
// that matter: replicated mappings, decoy branches, equalities,
// definitional layers, comparisons.
func FuzzPPLReformulate(f *testing.F) {
	type pair struct{ spec, query string }
	for _, s := range []pair{
		{
			"storage A.r(x, y) in A:R(x, y)\nfact A.r(\"1\", \"2\")",
			`q(x, y) :- A:R(x, y)`,
		},
		{
			"include B:S(x, y) in A:R(x, y)\ninclude B:S(x, y) in A:R(x, y)\nstorage B.s(x, y) in B:S(x, y)\nfact B.s(\"1\", \"2\")\nfact B.s(\"2\", \"3\")",
			`q(x, z) :- A:R(x, y), A:R(y, z)`,
		},
		{
			"include C:T(x, y) in B:S(x, y)\ninclude B:S(x, y) in A:R(x, y)\ninclude X:D(x, y) in A:R(x, y)\nstorage C.t(x, y) in C:T(x, y)\nfact C.t(\"1\", \"1\")",
			`q(x) :- A:R(x, x)`,
		},
		{
			"equal A:R(x, y) and B:S(x, y)\nstorage B.s(x, y) in B:S(x, y)\nfact B.s(\"a\", \"b\")",
			`q(x, y) :- A:R(x, y)`,
		},
		{
			"define T:Top(x, z) :- M:A(x, y), M:B(y, z)\nstorage S0.r(x, y) in M:A(x, y)\nstorage S1.r(x, y) in M:B(x, y)\nfact S0.r(\"1\", \"2\")\nfact S1.r(\"2\", \"3\")",
			`q(x, z) :- T:Top(x, z)`,
		},
		{
			"storage P0.s(x, y) in A:R(x, y), x >= 0, x < 10\nstorage P1.s(x, y) in A:R(x, y), x >= 10, x < 20\nfact P0.s(\"5\", \"a\")\nfact P1.s(\"15\", \"b\")",
			`q(x, y) :- A:R(x, y), x >= 10`,
		},
	} {
		f.Add(s.spec, s.query)
	}
	f.Fuzz(func(t *testing.T, src, qsrc string) {
		if len(src) > 2048 || len(qsrc) > 256 {
			return
		}
		res, err := parser.Parse(src)
		if err != nil {
			return
		}
		q, err := parser.ParseQuery(qsrc)
		if err != nil {
			return
		}
		const maxNodes, maxRewritings = 20_000, 400
		answers := func(opts Options) ([]rel.Tuple, bool) {
			opts.MaxNodes = maxNodes
			opts.MaxRewritings = maxRewritings
			r := New(res.PDMS, opts)
			out, err := r.Reformulate(q, nil)
			if err != nil {
				return nil, false // node budget exceeded: fuzzer-built pathological spec
			}
			if out.Stats.Rewritings >= maxRewritings {
				return nil, false // truncated union: legitimately incomplete
			}
			got, err := rel.EvalUCQ(out.UCQ, res.Data)
			if err != nil {
				t.Fatalf("rewriting of accepted query does not evaluate: %v\nspec:\n%s\nquery: %s", err, src, qsrc)
			}
			return rel.DistinctSorted(got), true
		}
		got, ok := answers(Options{})
		if !ok {
			return
		}
		if seed, ok := answers(Options{NoPruneSubsumed: true}); ok && !sameTuples(got, seed) {
			t.Fatalf("pruning changed answers:\npruned   %v\nunpruned %v\nspec:\n%s\nquery: %s", got, seed, src, qsrc)
		}
		inst, err := chase.Chase(res.PDMS, res.Data, chase.Options{MaxRounds: 200})
		if err != nil {
			return // outside the supported/terminating fragment
		}
		canon, err := rel.EvalCQ(q, inst)
		if err != nil {
			return
		}
		have := map[string]bool{}
		for _, tup := range canon {
			have[tup.Key()] = true
		}
		for _, tup := range got {
			if !have[tup.Key()] {
				t.Fatalf("unsound answer %v not derivable in canonical instance\nspec:\n%s\nquery: %s", tup, src, qsrc)
			}
		}
		if res.PDMS.Classify(q).Class != ppl.PTime {
			return // completeness only guaranteed in the tractable fragment
		}
		want, err := chase.CertainAnswers(res.PDMS, res.Data, q, chase.Options{MaxRounds: 200})
		if err != nil {
			return
		}
		if !sameTuples(got, rel.DistinctSorted(want)) {
			t.Fatalf("reformulation disagrees with chase on PTIME spec:\n got %v\nwant %v\nspec:\n%s\nquery: %s", got, want, src, qsrc)
		}
	})
}

// sameTuples compares two sorted distinct tuple slices.
func sameTuples(a, b []rel.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
