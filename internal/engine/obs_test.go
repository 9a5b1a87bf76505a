package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

func obsFixture(t *testing.T) *Engine {
	t.Helper()
	ins := rel.NewInstance()
	for i := 0; i < 50; i++ {
		ins.MustAdd("E", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%5))
	}
	for i := 0; i < 5; i++ {
		ins.MustAdd("F", fmt.Sprintf("b%d", i))
	}
	return New(ins)
}

// TestRegisterMetrics registers the engine's counters into a registry and
// checks one snapshot carries them under the dotted "engine." names.
func TestRegisterMetrics(t *testing.T) {
	e := obsFixture(t)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Const("a7"), lang.Var("y"))},
	}
	if _, err := e.EvalCQ(q); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counters["engine.probes"] == 0 {
		t.Fatalf("engine.probes not reported: %v", snap.Counters)
	}
	if snap.Counters["engine.plans_compiled"] == 0 {
		t.Fatalf("engine.plans_compiled not reported: %v", snap.Counters)
	}
	for _, key := range []string{"engine.scans", "engine.indexes_built", "engine.plan_cache.hits", "engine.plan_cache.misses"} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("%s missing from snapshot: %v", key, snap.Counters)
		}
	}
}

// TestOneDisjunctTrace checks the traced path of a single conjunctive
// query (a one-disjunct UCQ) records plan and exec child spans (the plan
// span annotated with the chosen step order) and returns the same answer
// as the untraced path.
func TestOneDisjunctTrace(t *testing.T) {
	e := obsFixture(t)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{
			lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("F", lang.Var("y")),
		},
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{q}}
	tr := obs.NewTracer(2)
	root := tr.ForceTrace("query")
	traced, err := e.EvalUCQSpan(u, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.EvalUCQSpan(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain) || len(traced) == 0 {
		t.Fatalf("traced answer %v != untraced %v", traced, plain)
	}
	ps := root.Find("plan")
	if ps == nil {
		t.Fatalf("no plan span:\n%s", root.Render())
	}
	steps := ps.AttrMap()["steps"]
	if steps == "" {
		t.Fatalf("plan span has no steps annotation:\n%s", root.Render())
	}
	es := root.Find("exec")
	if es == nil {
		t.Fatalf("no exec span:\n%s", root.Render())
	}
	if es.AttrMap()["rows"] == "" {
		t.Fatalf("exec span has no rows annotation:\n%s", root.Render())
	}
}

// TestTracedAndUntracedCountAlike pins the single evaluation path: twin
// engines over one instance, one evaluating traced and one untraced, must
// end with identical engine and plan-cache counters — a sampled query
// does no extra plan lookups.
func TestTracedAndUntracedCountAlike(t *testing.T) {
	traced, plain := obsFixture(t), obsFixture(t)
	mkCQ := func(c string) lang.CQ {
		return lang.CQ{
			Head: lang.NewAtom("q", lang.Var("x")),
			Body: []lang.Atom{
				lang.NewAtom("E", lang.Var("x"), lang.Const(c)),
				lang.NewAtom("F", lang.Const(c)),
			},
		}
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{mkCQ("b1"), mkCQ("b2")}}
	tr := obs.NewTracer(4)
	const n = 3
	for i := 0; i < n; i++ {
		root := tr.ForceTrace("query")
		a, err := traced.EvalUCQSpan(u, root)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.EvalUCQSpan(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: traced %v != untraced %v", i, a, b)
		}
	}
	if a, b := traced.plans.Stats(), plain.plans.Stats(); a != b {
		t.Fatalf("plan cache: traced %+v, untraced %+v", a, b)
	}
	if a, b := traced.Stats(), plain.Stats(); a != b {
		t.Fatalf("engine stats: traced %+v, untraced %+v", a, b)
	}
}

// TestEvalUCQSpanTrace checks the fan-out path: one eval.cq child per
// disjunct, each holding its own plan/exec spans, and the invalid-UCQ
// error surfaced on the root span.
func TestEvalUCQSpanTrace(t *testing.T) {
	e := obsFixture(t)
	mkCQ := func(c string) lang.CQ {
		return lang.CQ{
			Head: lang.NewAtom("q", lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("E", lang.Const(c), lang.Var("y"))},
		}
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{mkCQ("a1"), mkCQ("a2"), mkCQ("a3")}}
	tr := obs.NewTracer(2)
	root := tr.ForceTrace("query")
	rows, err := e.EvalUCQSpan(u, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(plain) {
		t.Fatalf("traced rows %v != untraced %v", rows, plain)
	}
	var cqs int
	for _, c := range root.Children() {
		if c.Name() == "eval.cq" {
			cqs++
			if c.Find("plan") == nil {
				t.Fatalf("eval.cq without plan child:\n%s", root.Render())
			}
		}
	}
	if cqs != len(u.Disjuncts) {
		t.Fatalf("got %d eval.cq spans, want %d:\n%s", cqs, len(u.Disjuncts), root.Render())
	}

	// An invalid UCQ (head arity mismatch across disjuncts) errors the
	// same traced or not, and the error lands on the span.
	bad := lang.UCQ{Disjuncts: []lang.CQ{
		mkCQ("a1"),
		{Head: lang.NewAtom("q"), Body: []lang.Atom{lang.NewAtom("F", lang.Var("y"))}},
	}}
	badRoot := tr.ForceTrace("bad")
	_, traceErr := e.EvalUCQSpan(bad, badRoot)
	badRoot.End()
	_, plainErr := e.EvalUCQ(bad)
	if traceErr == nil || plainErr == nil {
		t.Fatalf("invalid UCQ did not error: traced=%v plain=%v", traceErr, plainErr)
	}
	if traceErr.Error() != plainErr.Error() {
		t.Fatalf("traced error %q != untraced %q", traceErr, plainErr)
	}
	if badRoot.AttrMap()["error"] != traceErr.Error() {
		t.Fatalf("validation error not on the root span:\n%s", badRoot.Render())
	}

	// A disjunct that fails at evaluation (its atom's arity disagrees with
	// the stored relation) fails the union, and its error lands on that
	// disjunct's own eval.cq span, not on its healthy sibling's.
	failing := lang.UCQ{Disjuncts: []lang.CQ{
		mkCQ("a1"),
		{Head: lang.NewAtom("q", lang.Var("y")), Body: []lang.Atom{lang.NewAtom("E", lang.Var("y"))}},
	}}
	failRoot := tr.ForceTrace("failing")
	_, failErr := e.EvalUCQSpan(failing, failRoot)
	failRoot.End()
	if failErr == nil {
		t.Fatal("arity-mismatched disjunct did not error")
	}
	var onSpan []string
	for _, c := range failRoot.Children() {
		if c.Name() == "eval.cq" {
			onSpan = append(onSpan, c.AttrMap()["error"])
		}
	}
	if len(onSpan) != 2 || (onSpan[0] == "") == (onSpan[1] == "") {
		t.Fatalf("want exactly one errored eval.cq span, got errors %q:\n%s", onSpan, failRoot.Render())
	}
	if got := onSpan[0] + onSpan[1]; got != failErr.Error() {
		t.Fatalf("eval.cq span error %q, want %q", got, failErr)
	}
}
