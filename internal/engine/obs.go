package engine

import (
	"fmt"
	"strings"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// RegisterMetrics registers the engine's cumulative counters, and its plan
// cache's, as the "engine" snapshot group of reg, so one obs snapshot
// reports them under stable dotted names (engine.probes,
// engine.scans, engine.plan_cache.hits, …).
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterGroup("engine", func(em *obs.Emitter) {
		st := e.Stats()
		em.Counter("probes", st.Probes)
		em.Counter("scans", st.Scans)
		em.Counter("plans_compiled", st.PlansCompiled)
		em.Counter("indexes_built", st.IndexesBuilt)
		pc := e.plans.Stats()
		em.Counter("plan_cache.hits", pc.Hits)
		em.Counter("plan_cache.misses", pc.Misses)
	})
}

// describe summarizes the plan's step order for trace annotations:
// "probe FH.cite[0]; scan FH.doc".
func (p *Plan) describe() string {
	var sb strings.Builder
	for i, s := range p.steps {
		if i > 0 {
			sb.WriteString("; ")
		}
		switch {
		case len(s.keyCols) > 0:
			fmt.Fprintf(&sb, "probe %s%v", s.pred, s.keyCols)
		case s.delta:
			fmt.Fprintf(&sb, "delta-scan %s", s.pred)
		default:
			fmt.Fprintf(&sb, "scan %s", s.pred)
		}
	}
	return sb.String()
}

// EvalCQSpan is EvalCQ with tracing: under a non-nil span it records a
// "plan" child covering plan fetch/compilation (annotated with the chosen
// step order) and an "exec" child covering the scan/probe run (annotated
// with the distinct-row count). A nil span evaluates identically with no
// overhead beyond the nil checks.
func (e *Engine) EvalCQSpan(q lang.CQ, sp *obs.Span) ([]rel.Tuple, error) {
	if sp == nil {
		return e.EvalCQ(q)
	}
	ps := sp.Child("plan")
	p, err := e.plan(q.Canonical(), q)
	if err != nil {
		ps.SetErr(err)
		ps.End()
		return nil, err
	}
	ps.Set("steps", p.describe())
	ps.End()

	es := sp.Child("exec")
	rows, err := e.EvalCQ(q)
	es.SetErr(err)
	es.SetInt("rows", int64(len(rows)))
	es.End()
	return rows, err
}

// EvalUCQSpan is EvalUCQ with tracing: one "eval.cq" child span per
// disjunct (each holding its plan/exec sub-spans), created concurrently by
// the disjunct worker pool. A nil span is exactly EvalUCQ.
func (e *Engine) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	if sp == nil {
		return e.EvalUCQ(u)
	}
	if err := u.Validate(); err != nil {
		sp.SetErr(err)
		return nil, err
	}
	sp.SetInt("disjuncts", int64(len(u.Disjuncts)))
	groups := make([][]rel.Tuple, len(u.Disjuncts))
	errs := make([]error, len(u.Disjuncts))
	runOne := func(i int) {
		cs := sp.Child("eval.cq", obs.Attr{K: "head", V: u.Disjuncts[i].Head.Pred})
		groups[i], errs[i] = e.EvalCQSpan(u.Disjuncts[i], cs)
		cs.End()
	}
	if n := len(u.Disjuncts); n <= 1 {
		for i := range u.Disjuncts {
			runOne(i)
		}
	} else {
		idx := make(chan int)
		done := make(chan struct{})
		workers := min(n, maxUCQFanout)
		for w := 0; w < workers; w++ {
			go func() {
				for i := range idx {
					runOne(i)
				}
				done <- struct{}{}
			}()
		}
		for i := range u.Disjuncts {
			idx <- i
		}
		close(idx)
		for w := 0; w < workers; w++ {
			<-done
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := rel.DistinctSorted(groups...)
	sp.SetInt("rows", int64(len(out)))
	return out, nil
}
