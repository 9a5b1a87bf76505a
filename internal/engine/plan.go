package engine

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/rel"
)

// Plan is a compiled evaluation order for one conjunctive query: body atoms
// reordered by estimated selectivity, each lowered to an index probe (when
// any of its positions are bound at that point) or a full scan, with
// comparison predicates attached to the earliest step that grounds them.
// Variables live in a flat slot array instead of substitution maps. A plan
// depends only on the query shape (plus cardinality and distinct-value
// estimates at compile time, which affect ordering but never correctness),
// so plans are cached and reused across evaluations.
type Plan struct {
	steps     []planStep
	nslots    int
	slotNames []string // slot -> variable name
	headPred  string
	head      []outPart
	// preComps are variable-free comparisons, checked once per run.
	preComps []compiledComp
	// lateComps are comparisons with variables never bound by the body;
	// evaluating them on a complete match is an error (mirrors rel.EvalCQ).
	lateComps []lang.Comparison
}

// outPart emits one head position: from a slot (slot >= 0) or a constant.
type outPart struct {
	slot     int
	constVal string
}

// posSlot pairs a tuple position with a slot.
type posSlot struct {
	pos, slot int
}

// posConst pairs a tuple position with a constant value.
type posConst struct {
	pos int
	val string
}

// posPos pairs two tuple positions that must hold equal values.
type posPos struct {
	pos, first int
}

type planStep struct {
	pred  string
	arity int
	// delta: this step scans the per-round delta instance handed to run
	// (semi-naive datalog pivot) instead of the engine's instance.
	delta bool
	// Probe path (len(keyCols) > 0, never with delta): the index key is the
	// projection onto keyCols, assembled from keyParts.
	keyCols  []int
	keyParts []outPart
	// Scan path: positions that must equal a constant.
	checkConsts []posConst
	// Delta-scan path: positions whose variable was bound by an earlier
	// step (on the probe path these are key columns instead).
	checkSlots []posSlot
	// Both paths: repeated variables within the atom — the two tuple
	// positions must agree (checked on the tuple itself, since the slot is
	// not written until the binds below run).
	checkPos []posPos
	// binds writes tuple positions into freshly-bound slots.
	binds []posSlot
	// comps become fully ground after this step's binds.
	comps []compiledComp
}

// compiledComp is a comparison with both sides resolved to a slot or const.
type compiledComp struct {
	op   lang.CompOp
	l, r outPart
}

func (c compiledComp) eval(slots []string) bool {
	lv, rv := c.l.constVal, c.r.constVal
	if c.l.slot >= 0 {
		lv = slots[c.l.slot]
	}
	if c.r.slot >= 0 {
		rv = slots[c.r.slot]
	}
	return c.op.EvalConst(lang.Const(lv), lang.Const(rv))
}

// ColStats is the planner's per-relation statistics input: the relation's
// cardinality and, when available, the approximate distinct-value count per
// column (rel.Stats). A nil or short Distinct falls back to the uniform
// per-bound-argument discount for the uncovered positions.
type ColStats struct {
	Card     int
	Distinct []float64
}

// uniformSel is the fallback per-bound-position selectivity used when no
// distinct-value statistic covers a column — the pre-statistics cost
// model's fixed discount (one eighth per bound argument).
const uniformSel = 1.0 / 8

// OrderBodyStats returns an evaluation order for the body atoms under the
// engine's greedy selectivity heuristic: repeatedly take the atom with the
// lowest estimated result cardinality, where binding a position (by a
// constant or a variable bound by an earlier atom) scales the atom's
// cardinality by that column's selectivity — 1/distinct(column) when
// statsOf supplies a distinct-value estimate for it, else the uniform 1/8
// discount. A column with many distinct values therefore makes its atom a
// sharply selective probe, and one with few distinct values no longer
// masquerades as selective just because something is bound. forcePivot >= 0
// pins that atom first (datalog semi-naive); -1 orders all atoms greedily.
func OrderBodyStats(body []lang.Atom, statsOf func(pred string) ColStats, forcePivot int) []int {
	bound := map[string]bool{}
	var order []int
	taken := make([]bool, len(body))
	bind := func(i int) {
		order = append(order, i)
		taken[i] = true
		for _, t := range body[i].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	if forcePivot >= 0 {
		bind(forcePivot)
	}
	stats := map[string]ColStats{}
	statFor := func(pred string) ColStats {
		if st, ok := stats[pred]; ok {
			return st
		}
		st := statsOf(pred)
		stats[pred] = st
		return st
	}
	for len(order) < len(body) {
		best := -1
		bestCost := 0.0
		for i, a := range body {
			if taken[i] {
				continue
			}
			st := statFor(a.Pred)
			cost := float64(st.Card) + 1
			for pos, t := range a.Args {
				if !t.IsConst() && !bound[t.Name] {
					continue
				}
				sel := uniformSel
				if pos < len(st.Distinct) && st.Distinct[pos] >= 1 {
					sel = 1 / st.Distinct[pos]
				}
				cost *= sel
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		bind(best)
	}
	return order
}

// compile builds a plan for q. forcePivot >= 0 pins body atom forcePivot as
// the first step and marks it as a delta scan (datalog semi-naive); -1
// orders all atoms greedily.
func (e *Engine) compile(q lang.CQ, forcePivot int) (*Plan, error) {
	e.plansCompiled.Add(1)
	if !q.IsSafe() {
		return nil, fmt.Errorf("engine: unsafe query %s", q)
	}
	for _, a := range q.Body {
		if r := e.data.Relation(a.Pred); r != nil && r.Arity() != a.Arity() {
			return nil, fmt.Errorf("engine: atom %s arity %d, relation has %d", a, a.Arity(), r.Arity())
		}
	}

	p := &Plan{headPred: q.Head.Pred}
	slotOf := map[string]int{}
	getSlot := func(name string) int {
		if s, ok := slotOf[name]; ok {
			return s
		}
		s := len(p.slotNames)
		slotOf[name] = s
		p.slotNames = append(p.slotNames, name)
		return s
	}

	statsOf := e.colStats
	if e.uniformCost {
		statsOf = func(pred string) ColStats { return ColStats{Card: e.card(pred)} }
	}
	order := OrderBodyStats(q.Body, statsOf, forcePivot)

	// Lower each atom to a step.
	boundSlots := map[string]bool{} // vars bound by *earlier* steps
	for stepIdx, bi := range order {
		a := q.Body[bi]
		st := planStep{pred: a.Pred, arity: a.Arity(), delta: forcePivot >= 0 && stepIdx == 0}
		firstPos := map[string]int{} // var -> position of first in-step occurrence
		for pos, t := range a.Args {
			switch {
			case t.IsConst():
				if !st.delta {
					st.keyCols = append(st.keyCols, pos)
					st.keyParts = append(st.keyParts, outPart{slot: -1, constVal: t.Name})
				} else {
					st.checkConsts = append(st.checkConsts, posConst{pos: pos, val: t.Name})
				}
			case boundSlots[t.Name] && !st.delta:
				st.keyCols = append(st.keyCols, pos)
				st.keyParts = append(st.keyParts, outPart{slot: getSlot(t.Name)})
			case boundSlots[t.Name]:
				st.checkSlots = append(st.checkSlots, posSlot{pos: pos, slot: getSlot(t.Name)})
			default:
				if fp, ok := firstPos[t.Name]; ok {
					st.checkPos = append(st.checkPos, posPos{pos: pos, first: fp})
				} else {
					firstPos[t.Name] = pos
					st.binds = append(st.binds, posSlot{pos: pos, slot: getSlot(t.Name)})
				}
			}
		}
		for v := range firstPos {
			boundSlots[v] = true
		}
		p.steps = append(p.steps, st)
	}

	// Attach comparisons to the earliest point at which they are ground.
	for _, c := range q.Comps {
		vars := c.Vars(nil)
		if len(vars) == 0 {
			p.preComps = append(p.preComps, compileComp(c, slotOf))
			continue
		}
		attached := false
		seen := map[string]bool{}
		for i := range p.steps {
			for _, b := range p.steps[i].binds {
				seen[p.slotNames[b.slot]] = true
			}
			ok := true
			for _, v := range vars {
				if !seen[v.Name] {
					ok = false
					break
				}
			}
			if ok {
				cc := compileComp(c, slotOf)
				p.steps[i].comps = append(p.steps[i].comps, cc)
				attached = true
				break
			}
		}
		if !attached {
			p.lateComps = append(p.lateComps, c)
		}
	}

	// Head emission. Safety guarantees every head variable is bound.
	p.head = make([]outPart, len(q.Head.Args))
	for i, t := range q.Head.Args {
		if t.IsConst() {
			p.head[i] = outPart{slot: -1, constVal: t.Name}
		} else {
			s, ok := slotOf[t.Name]
			if !ok {
				return nil, fmt.Errorf("engine: unbound head variable %s in %s", t, q)
			}
			p.head[i] = outPart{slot: s}
		}
	}
	p.nslots = len(p.slotNames)
	return p, nil
}

func compileComp(c lang.Comparison, slotOf map[string]int) compiledComp {
	part := func(t lang.Term) outPart {
		if t.IsConst() {
			return outPart{slot: -1, constVal: t.Name}
		}
		return outPart{slot: slotOf[t.Name]}
	}
	return compiledComp{op: c.Op, l: part(c.L), r: part(c.R)}
}

// runCtx is the per-evaluation state of one plan execution: the slot array
// and reusable key buffers.
type runCtx struct {
	e     *Engine
	p     *Plan
	delta *rel.Instance
	yield func(slots []string) error
	slots []string
	key   []byte
	vals  []string
}

// step executes plan step i and everything below it.
func (rc *runCtx) step(i int) error {
	p := rc.p
	if i == len(p.steps) {
		if len(p.lateComps) > 0 {
			return fmt.Errorf("engine: comparison %s not bound by body", p.lateComps[0])
		}
		return rc.yield(rc.slots)
	}
	st := &p.steps[i]
	if st.delta {
		r := rc.delta.Relation(st.pred)
		if r == nil {
			return nil
		}
		if r.Arity() != st.arity {
			return fmt.Errorf("engine: atom %s/%d, delta relation has arity %d", st.pred, st.arity, r.Arity())
		}
		rc.e.scans.Add(1)
		return rc.feed(i, st, r.AddedSince(0))
	}
	r := rc.e.data.Relation(st.pred)
	if r == nil {
		return nil
	}
	if r.Arity() != st.arity {
		return fmt.Errorf("engine: atom %s/%d, relation has arity %d", st.pred, st.arity, r.Arity())
	}
	if len(st.keyCols) == 0 {
		rc.e.scans.Add(1)
		return rc.feed(i, st, r.AddedSince(0))
	}
	// Probe path: resolve the key parts, look up the index.
	if cap(rc.vals) < len(st.keyParts) {
		rc.vals = make([]string, len(st.keyParts))
	}
	vals := rc.vals[:len(st.keyParts)]
	for j, part := range st.keyParts {
		if part.slot >= 0 {
			vals[j] = rc.slots[part.slot]
		} else {
			vals[j] = part.constVal
		}
	}
	rc.e.probes.Add(1)
	return rc.feed(i, st, rc.e.probe(r, st.keyCols, vals, &rc.key))
}

// feed applies step i's checks and binds to each candidate tuple and
// recurses into step i+1 for survivors.
func (rc *runCtx) feed(i int, st *planStep, tuples []rel.Tuple) error {
next:
	for _, tup := range tuples {
		for _, cc := range st.checkConsts {
			if tup[cc.pos] != cc.val {
				continue next
			}
		}
		for _, c := range st.checkSlots {
			if tup[c.pos] != rc.slots[c.slot] {
				continue next
			}
		}
		for _, c := range st.checkPos {
			if tup[c.pos] != tup[c.first] {
				continue next
			}
		}
		for _, b := range st.binds {
			rc.slots[b.slot] = tup[b.pos]
		}
		for _, c := range st.comps {
			if !c.eval(rc.slots) {
				continue next
			}
		}
		if err := rc.step(i + 1); err != nil {
			return err
		}
	}
	return nil
}

// run executes the plan, invoking yield with the slot array for every body
// match. delta supplies the scan source for delta steps (datalog); nil
// otherwise. The slot array is reused across yields — callers must copy
// what they keep.
func (e *Engine) run(p *Plan, delta *rel.Instance, yield func(slots []string) error) error {
	for _, c := range p.preComps {
		if !c.eval(nil) {
			return nil
		}
	}
	rc := &runCtx{e: e, p: p, delta: delta, yield: yield, slots: make([]string, p.nslots)}
	return rc.step(0)
}
