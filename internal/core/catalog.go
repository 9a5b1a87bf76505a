// Package core implements the paper's primary contribution: the rule-goal
// tree query reformulation algorithm for PPL (Section 4), which uniformly
// interleaves GAV-style (definitional) and LAV-style (inclusion, via MiniCon
// descriptions) expansions, chains through arbitrarily long paths of peer
// mappings, and extracts reformulations as a union of conjunctive queries
// over stored relations.
package core

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/minicon"
	"repro/internal/ppl"
)

// rule is a datalog rule available for definitional expansion: an original
// definitional peer mapping, or the "V :- Q1" half of a normalized inclusion.
type rule struct {
	// id is the originating description's ID (for the once-per-path rule).
	id string
	// cq is the rule itself.
	cq lang.CQ
	// fromInclusion marks V-rules: they complete an inclusion expansion
	// that already consumed the description's path budget, so they are
	// exempt from the once-per-path check (their head predicate is a fresh
	// V that occurs nowhere else, so they cannot recurse).
	fromInclusion bool
}

// catalog is the step-1 normalized form of a PDMS (Section 4.2): every
// equality split into two inclusions, every inclusion Q1 ⊆ Q2 split into a
// view V ⊆ Q2 plus a rule V :- Q1, definitional mappings kept as rules.
// Indexed for expansion. Every field is computed by newCatalog and only
// read afterwards, so one catalog serves concurrent reformulations.
type catalog struct {
	pdms *ppl.PDMS
	// rulesByHead indexes rules by head predicate (definitional expansion).
	rulesByHead map[string][]*rule
	// viewsByBodyPred indexes views by body predicate (inclusion expansion).
	viewsByBodyPred map[string][]*minicon.View
	// reach holds, per predicate with rules or views, the set of
	// description IDs reachable from it in the dependency graph: only these
	// descriptions can occur anywhere in a rule-goal subtree rooted at a
	// goal over the predicate, so ban-sets restricted to this cone fully
	// determine the subtree. A predicate with neither has no entry (its
	// cone is empty).
	reach map[string]map[string]bool
	// nextPreds maps each description ID to the predicates its expansion
	// introduces (definitional rule body; inclusion LHS body via the
	// V-rule).
	nextPreds map[string][]string
	// grounds is the groundability fixpoint (see prune.go): rule-head
	// predicates derivable from stored relations.
	grounds map[string]bool
	// descContent maps each description ID to its canonical content string,
	// used by duplicate-description pruning (see prune.go).
	descContent map[string]string
	// vpredContent maps each minted V-predicate name to its normalized
	// inclusion's canonical content, so replicated mappings' distinct
	// V-predicates canonicalize identically in childSig (see prune.go).
	vpredContent map[string]string
	// class is the query-independent part of the Theorem 3.1–3.3
	// classification.
	class ppl.SpecClass
}

// newCatalog normalizes the PDMS descriptions and computes every derived
// index up front.
func newCatalog(n *ppl.PDMS) *catalog {
	c := &catalog{
		pdms:            n,
		rulesByHead:     map[string][]*rule{},
		viewsByBodyPred: map[string][]*minicon.View{},
	}
	vnum := 0
	// addInclusion normalizes one inclusion Q1 ⊆ Q2 originating from
	// description id: fresh V; view V ⊆ Q2; rule V :- Q1.
	addInclusion := func(id string, lhs, rhs lang.CQ) {
		vnum++
		vpred := fmt.Sprintf("_V%d[%s]", vnum, id)
		view := &minicon.View{
			ID:    id,
			Head:  lang.Atom{Pred: vpred, Args: rhs.Head.Args},
			Body:  rhs.Body,
			Comps: rhs.Comps,
		}
		c.addView(view)
		c.addRule(&rule{
			id:            id,
			fromInclusion: true,
			cq: lang.CQ{
				Head:  lang.Atom{Pred: vpred, Args: lhs.Head.Args},
				Body:  lhs.Body,
				Comps: lhs.Comps,
			},
		})
		c.recordNext(id, lhs.Body)
		c.recordVpred(vpred, lhs, rhs)
	}
	for _, m := range n.Mappings() {
		switch m.Kind {
		case ppl.Inclusion:
			addInclusion(m.ID, m.LHS, m.RHS)
			c.recordContent(m.ID, "inc", m.LHS, m.RHS)
		case ppl.Equality:
			// Step 1: an equality is the two opposite inclusions.
			addInclusion(m.ID, m.LHS, m.RHS)
			addInclusion(m.ID, m.RHS, m.LHS)
			c.recordContent(m.ID, "eq", m.LHS, m.RHS)
		case ppl.Definitional:
			c.addRule(&rule{id: m.ID, cq: m.Rule})
			c.recordNext(m.ID, m.Rule.Body)
			c.recordContent(m.ID, "def", m.Rule)
		}
	}
	for _, s := range n.Storages() {
		// A storage description A.R ⊆ Q is the inclusion
		// {A.R(x̄)} ⊆ Q, whose normalized rule grounds out in the stored
		// relation. Equality storage descriptions add no reformulation
		// power in the other direction (goal nodes over stored relations
		// are leaves), so both kinds normalize identically; the
		// distinction matters to ppl.Classify, not to reformulation.
		lhs := lang.CQ{
			Head: lang.Atom{Pred: "_store", Args: s.Stored.Args},
			Body: []lang.Atom{s.Stored},
		}
		rhs := s.Query
		rhs.Head = lang.Atom{Pred: "_store", Args: s.Query.Head.Args}
		addInclusion(s.ID, lhs, rhs)
		c.recordContent(s.ID, "store", lhs, rhs)
	}
	c.grounds = c.groundSet()
	c.reach = map[string]map[string]bool{}
	for p := range c.rulesByHead {
		c.reach[p] = c.reachable(p)
	}
	for p := range c.viewsByBodyPred {
		if c.reach[p] == nil {
			c.reach[p] = c.reachable(p)
		}
	}
	c.class = n.ClassifySpec()
	return c
}

func (c *catalog) addRule(r *rule) {
	if !r.cq.IsSafe() {
		// Mappings are validated at AddMapping time; this is a defensive
		// invariant for rules synthesized here.
		panic(fmt.Sprintf("core: unsafe normalized rule %s", r.cq))
	}
	c.rulesByHead[r.cq.Head.Pred] = append(c.rulesByHead[r.cq.Head.Pred], r)
}

func (c *catalog) addView(v *minicon.View) {
	seen := map[string]bool{}
	for _, a := range v.Body {
		if !seen[a.Pred] {
			seen[a.Pred] = true
			c.viewsByBodyPred[a.Pred] = append(c.viewsByBodyPred[a.Pred], v)
		}
	}
}

// isStored reports whether pred names a stored relation (leaf predicate).
func (c *catalog) isStored(pred string) bool { return c.pdms.IsStored(pred) }

// recordNext registers the predicates a description's use introduces.
func (c *catalog) recordNext(id string, preds []lang.Atom) {
	if c.nextPreds == nil {
		c.nextPreds = map[string][]string{}
	}
	for _, a := range preds {
		c.nextPreds[id] = append(c.nextPreds[id], a.Pred)
	}
}

// reachable returns the description IDs reachable from pred.
func (c *catalog) reachable(pred string) map[string]bool {
	out := map[string]bool{}
	var visitPred func(p string)
	seenPred := map[string]bool{}
	visitPred = func(p string) {
		if seenPred[p] {
			return
		}
		seenPred[p] = true
		var ids []string
		for _, ru := range c.rulesByHead[p] {
			ids = append(ids, ru.id)
		}
		for _, v := range c.viewsByBodyPred[p] {
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			if !out[id] {
				out[id] = true
				for _, np := range c.nextPreds[id] {
					visitPred(np)
				}
			}
		}
	}
	visitPred(pred)
	return out
}
