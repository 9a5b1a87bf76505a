package core

import (
	"fmt"

	"repro/internal/containment"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/ppl"
)

// Reformulator reformulates queries over a PDMS into unions of conjunctive
// queries over stored relations. New does the paper's step-1 normalization
// and every spec-only analysis once; after that nothing writes to the
// Reformulator, so it is safe for concurrent use. Build it once per
// specification version: it reflects the PDMS as it was at New, and the
// PDMS must not be mutated while it is in use (pdms.Network rebuilds its
// Reformulator under the write lock on every Extend).
type Reformulator struct {
	pdms *ppl.PDMS
	cat  *catalog
	opts Options
}

// New builds a Reformulator for the PDMS with the given options.
func New(n *ppl.PDMS, opts Options) *Reformulator {
	return &Reformulator{pdms: n, cat: newCatalog(n), opts: opts}
}

// Result is the outcome of a full reformulation.
type Result struct {
	// UCQ is the reformulated query: a union of conjunctive queries over
	// stored relations. Evaluating it over the stored data yields certain
	// answers; when the PDMS is in the tractable fragment (see
	// Classification) it yields exactly the certain answers.
	UCQ lang.UCQ
	// Stats reports tree-size and extraction metrics.
	Stats Stats
	// Classification is the Theorem 3.1–3.3 complexity classification of
	// the (PDMS, query) pair.
	Classification ppl.Classification
}

// Reformulate builds the rule-goal tree for q, extracts every conjunctive
// rewriting (up to Options.MaxRewritings), and removes redundant disjuncts
// unless Options.KeepRedundant is set. When sp is non-nil it receives one
// child span per rule-goal tree node expanded during construction (goal
// nodes as "goal", their expansions as "rule"/"mcd" children), nested to
// mirror the tree; nil means untraced.
func (r *Reformulator) Reformulate(q lang.CQ, sp *obs.Span) (Result, error) {
	var res Result
	stats, err := r.Stream(q, sp, func(cq lang.CQ) bool {
		res.UCQ.Add(cq)
		return true
	})
	if err != nil {
		return Result{}, err
	}
	// Containment-based minimization is quadratic in the number of
	// disjuncts; beyond this size the union is returned as-is (it is
	// already correct, just possibly redundant — evaluation dedups).
	const redundancyLimit = 512
	if !r.opts.KeepRedundant && res.UCQ.Len() > 1 && res.UCQ.Len() <= redundancyLimit {
		res.UCQ = containment.RemoveRedundant(res.UCQ)
	}
	res.Stats = stats
	res.Classification = r.cat.class.Query(q)
	return res, nil
}

// Stream builds the rule-goal tree for q and streams conjunctive rewritings
// to yield as they are extracted; yield returning false stops extraction
// early (the paper's "first rewritings quickly" usage). It returns the
// accumulated statistics. sp traces tree construction as in Reformulate.
func (r *Reformulator) Stream(q lang.CQ, sp *obs.Span, yield func(lang.CQ) bool) (Stats, error) {
	if err := r.check(q); err != nil {
		return Stats{}, err
	}
	root, b, err := r.build(q, sp)
	if err != nil {
		return Stats{}, err
	}
	limit := r.opts.MaxRewritings
	n := 0
	b.extract(root, q, func(cq lang.CQ) bool {
		if !yield(cq) {
			return false
		}
		n++
		return limit <= 0 || n < limit
	})
	return b.stats, nil
}

// BuildTree constructs the rule-goal tree only (step 2), without extracting
// rewritings — the Figure 3 measurement.
func (r *Reformulator) BuildTree(q lang.CQ) (Stats, error) {
	if err := r.check(q); err != nil {
		return Stats{}, err
	}
	_, b, err := r.build(q, nil)
	if err != nil {
		return Stats{}, err
	}
	return b.stats, nil
}

// check validates the query against the PDMS schema and that its body does
// not mention synthetic predicates.
func (r *Reformulator) check(q lang.CQ) error {
	if len(q.Body) == 0 {
		return fmt.Errorf("core: empty query body")
	}
	return r.pdms.ValidateQuery(q)
}
