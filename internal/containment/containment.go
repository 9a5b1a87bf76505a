// Package containment implements conjunctive-query containment via
// containment mappings (the classical Chandra–Merlin technique), query
// minimization, and union-of-CQ containment.
//
// The reformulation engine uses containment to discard redundant rewritings
// (a produced conjunctive rewriting that is contained in another contributes
// no new certain answers), and the test suite uses it to compare reformulated
// queries against expected ones.
//
// For queries with comparison predicates the test is sound but not complete
// (completeness would require case analysis over linear orders, which is
// Π²ₚ-hard); a sound test is exactly what redundancy elimination needs: we
// only drop a rewriting when containment is certain.
package containment

import (
	"slices"

	"repro/internal/constraints"
	"repro/internal/lang"
)

// Contains reports whether q2 contains q1 (q1 ⊆ q2): every answer of q1 on
// every instance is an answer of q2. Decided by searching for a containment
// mapping from q2 into q1 that preserves the head, and (when comparisons are
// present) checking that q1's constraints imply the image of q2's.
func Contains(q1, q2 lang.CQ) bool {
	return contains(prepare(q1), prepare(q2))
}

// prepared is one query readied for containment tests on either side, so
// that a caller testing many pairs pays the per-query work once per query
// instead of once per pair.
type prepared struct {
	// q is the query as given: the contained side, whose variables are
	// rigid (they are the canonical-database constants).
	q lang.CQ
	// apart is q renamed apart for use as the containing side: sharing
	// variable names with the contained query would corrupt the mapping
	// search. Plain Fresh names are used (not FreshLike): suffix-preserving
	// names from a new supply could collide with "#"-suffixed variables
	// another supply produced — e.g. in rewritings from the reformulation
	// engine.
	apart lang.CQ
	// preds lists the distinct body predicates.
	preds []string
	// cons is q's comparison conjunction and sat its satisfiability.
	cons *constraints.Set
	sat  bool
}

func prepare(q lang.CQ) *prepared {
	ren := lang.NewSubst()
	vs := lang.NewVarSupply("_cm")
	for _, v := range q.Vars() {
		ren[v.Name] = vs.Fresh()
	}
	cons := constraints.New(q.Comps...)
	return &prepared{q: q, apart: q.Apply(ren), preds: q.Preds(), cons: cons, sat: cons.Satisfiable()}
}

func prepareAll(qs []lang.CQ) []*prepared {
	out := make([]*prepared, len(qs))
	for i, q := range qs {
		out[i] = prepare(q)
	}
	return out
}

// contains is Contains over prepared queries: p1.q ⊆ p2.q.
func contains(p1, p2 *prepared) bool {
	q1, q2 := p1.q, p2.apart
	if q1.Head.Arity() != q2.Head.Arity() {
		return false
	}
	// A containment mapping sends every atom of q2 onto an atom of q1 with
	// the same predicate, so a q2 predicate missing from q1 rules the pair
	// out before any search. Only for a satisfiable q1: an empty q1 is
	// contained in every q2 whose head matches.
	if p1.sat {
		for _, p := range p2.preds {
			if !slices.Contains(p1.preds, p) {
				return false
			}
		}
	}
	// The mapping must send q2's head to q1's head.
	base, ok := lang.Match(q2.Head, q1.Head, nil)
	if !ok {
		// Heads may differ in predicate name when comparing rewritings of
		// the same logical query; retry ignoring the head predicate name.
		h2 := q2.Head
		h2.Pred = q1.Head.Pred
		base, ok = lang.Match(h2, q1.Head, nil)
		if !ok {
			return false
		}
	}
	if !p1.sat {
		return true // q1 is empty, contained in everything
	}
	return findMapping(q2.Body, q1.Body, base, func(s lang.Subst) bool {
		// Constraint side-condition: c(q1) must imply s(c(q2)).
		for _, c := range q2.Comps {
			if !p1.cons.Implies(s.ApplyComparison(c)) {
				return false
			}
		}
		return true
	})
}

// Equivalent reports mutual containment.
func Equivalent(q1, q2 lang.CQ) bool {
	return Contains(q1, q2) && Contains(q2, q1)
}

// findMapping searches for an extension of base mapping every atom of from
// onto some atom of onto (variables of onto are rigid), subject to accept.
func findMapping(from, onto []lang.Atom, base lang.Subst, accept func(lang.Subst) bool) bool {
	var rec func(i int, s lang.Subst) bool
	rec = func(i int, s lang.Subst) bool {
		if i == len(from) {
			return accept(s)
		}
		// Pass the original atom: Match applies s itself and only binds
		// variables of the un-substituted pattern, keeping target-side
		// variables rigid (pre-applying s here would let bound-to rigid
		// variables masquerade as bindable pattern variables).
		for _, tgt := range onto {
			if s2, ok := lang.Match(from[i], tgt, s); ok {
				if rec(i+1, s2) {
					return true
				}
			}
		}
		return false
	}
	return rec(0, base)
}

// Minimize returns an equivalent query with a minimal body (the core): it
// repeatedly tries to drop a body atom, keeping the drop whenever the
// reduced query still contains the original. Comparison predicates are kept
// verbatim. The head is unchanged.
func Minimize(q lang.CQ) lang.CQ {
	cur := q.Clone()
	for changed := true; changed; {
		changed = false
		pc := prepare(cur)
		for i := range cur.Body {
			if len(cur.Body) == 1 {
				break
			}
			reduced := cur.Clone()
			reduced.Body = append(reduced.Body[:i], reduced.Body[i+1:]...)
			if !reduced.IsSafe() {
				continue
			}
			// reduced has fewer atoms so cur ⊆ reduced always; the drop is
			// sound when reduced ⊆ cur too.
			if contains(prepare(reduced), pc) {
				cur = reduced
				changed = true
				break
			}
		}
	}
	return cur
}

// ContainsUCQ reports whether the union u2 contains the union u1:
// every disjunct of u1 must be contained in some disjunct of u2 (this
// criterion is sound and complete for UCQs without comparisons, by
// Sagiv–Yannakakis).
func ContainsUCQ(u1, u2 lang.UCQ) bool {
	p2 := prepareAll(u2.Disjuncts)
	for _, d1 := range u1.Disjuncts {
		p1 := prepare(d1)
		found := false
		for _, d2 := range p2 {
			if contains(p1, d2) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// RemoveRedundant drops every disjunct of u that is contained in another
// (retained) disjunct, returning a minimal equivalent union. Deterministic:
// earlier disjuncts win ties. Each disjunct is prepared once, so most pairs
// are rejected by their predicates without a mapping search.
func RemoveRedundant(u lang.UCQ) lang.UCQ {
	ps := prepareAll(u.Disjuncts)
	var out lang.UCQ
	for i, d := range ps {
		redundant := false
		for j, e := range ps {
			if i == j {
				continue
			}
			if contains(d, e) {
				// Tie-break mutual containment by index.
				if i < j && contains(e, d) {
					continue
				}
				redundant = true
				break
			}
		}
		if !redundant {
			out.Add(d.q)
		}
	}
	if out.Len() == 0 && u.Len() > 0 {
		out.Add(u.Disjuncts[0])
	}
	return out
}
