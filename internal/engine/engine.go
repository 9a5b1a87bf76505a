package engine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/rel"
)

// ErrStop is returned by an Enumerate yield callback to stop enumeration
// early without error.
var ErrStop = errors.New("engine: stop enumeration")

// PlanCache caches an engine's compiled plans keyed by canonicalized
// query. A plan fixes only the join order and probe shapes, never data, so
// a cached plan stays sound as the instance grows.
type PlanCache struct {
	lru *LRU
}

// NewPlanCache returns a plan cache holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache { return &PlanCache{lru: NewLRU(capacity)} }

// Stats reports cumulative plan-cache hits and misses.
func (pc *PlanCache) Stats() CacheStats { return pc.lru.Stats() }

// Stats are cumulative engine counters (observability and tests).
type Stats struct {
	// Probes counts index-probe step entries; Scans counts full-scan step
	// entries.
	Probes, Scans uint64
	// PlansCompiled counts plan compilations (cache misses).
	PlansCompiled uint64
	// IndexesBuilt counts distinct (relation, column-set) indexes created.
	IndexesBuilt uint64
}

// index is a hash index over one relation for one bound-position set: the
// key projects the tuple onto cols and buckets hold the matching tuples.
// Indexes are built lazily on first probe and maintained incrementally by
// consuming the relation's append-only insert log.
type index struct {
	cols []int
	// mu's read lock covers the fast path (index already caught up with the
	// log), so concurrent probes proceed in parallel; the write lock is only
	// taken to consume new log entries.
	mu sync.RWMutex
	// consumed is how many log entries the index has folded in, guarded by
	// mu.
	consumed uint64
	// buckets maps composite probe keys to matching tuples, guarded by mu.
	buckets map[string][]rel.Tuple
}

// AppendKeyPart appends one key component with a length prefix, so
// composite keys are collision-free even for values containing the
// delimiter bytes themselves ("a\x00b","c" vs "a","b\x00c"). Probe-path key
// assembly must use this same encoding. It is exported for other packages
// that need collision-free composite names (netpeer's executor encodes
// per-atom selection patterns with it).
func AppendKeyPart(dst []byte, v string) []byte {
	dst = strconv.AppendInt(dst, int64(len(v)), 10)
	dst = append(dst, ':')
	return append(dst, v...)
}

func bucketKey(t rel.Tuple, cols []int) string {
	if len(cols) == 1 {
		return t[cols[0]]
	}
	var key []byte
	for _, c := range cols {
		key = AppendKeyPart(key, t[c])
	}
	return string(key)
}

// appendProbeKey assembles the composite probe key for vals (one value per
// probed column) into dst, in the same encoding bucketKey uses.
func appendProbeKey(dst []byte, vals []string) []byte {
	if len(vals) == 1 {
		return append(dst, vals[0]...)
	}
	for _, v := range vals {
		dst = AppendKeyPart(dst, v)
	}
	return dst
}

// Engine evaluates conjunctive queries, unions of conjunctive queries and
// datalog programs over a rel.Instance using lazily-built hash indexes and
// distinct-value-statistics join ordering. It is the indexed replacement
// for the naive evaluator in package rel (which remains the reference
// oracle).
//
// Concurrency: concurrent evaluations are safe with each other, and the
// underlying relations tolerate concurrent inserts (each self-synchronizes);
// callers that need one atomic point-in-time answer across mutations still
// serialize them externally (pdms.Network, netpeer.Server). Indexes catch
// up with inserts on the next probe.
type Engine struct {
	data  *rel.Instance
	plans *PlanCache

	// uniformCost disables the distinct-value cost model, restoring the
	// fixed per-bound-argument discount (benchmark baseline).
	uniformCost bool

	// mu guards the two-level index map. Probes take the read lock only to
	// locate the *index for their (relation, column-set); all bucket state
	// is then guarded inside the index, so probes of different indexes never
	// contend here.
	mu      sync.RWMutex
	indexes map[string]map[string]*index // pred -> column-set key -> index; guarded by mu

	probes        atomic.Uint64
	scans         atomic.Uint64
	plansCompiled atomic.Uint64
	indexesBuilt  atomic.Uint64
}

// New returns an engine over ins with its own plan cache.
func New(ins *rel.Instance) *Engine {
	return &Engine{data: ins, plans: NewPlanCache(1024), indexes: map[string]map[string]*index{}}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Probes:        e.probes.Load(),
		Scans:         e.scans.Load(),
		PlansCompiled: e.plansCompiled.Load(),
		IndexesBuilt:  e.indexesBuilt.Load(),
	}
}

// card estimates a relation's cardinality (0 when absent).
func (e *Engine) card(pred string) int {
	if r := e.data.Relation(pred); r != nil {
		return r.Len()
	}
	return 0
}

// colStats returns the planner statistics for pred: cardinality plus the
// per-column distinct-value estimates maintained by the relation's
// insert-time sketches. Absent relations report zero cardinality and no
// column stats.
func (e *Engine) colStats(pred string) ColStats {
	r := e.data.Relation(pred)
	if r == nil {
		return ColStats{}
	}
	st := r.Stats()
	return ColStats{Card: st.Rows, Distinct: st.Distinct}
}

// getIndex returns (creating if needed) the index of r for the
// bound-position set cols.
func (e *Engine) getIndex(r *rel.Relation, cols []int) *index {
	ck := colsKey(cols)
	e.mu.RLock()
	idx := e.indexes[r.Name()][ck]
	e.mu.RUnlock()
	if idx != nil {
		return idx
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	byCols := e.indexes[r.Name()]
	if byCols == nil {
		byCols = map[string]*index{}
		e.indexes[r.Name()] = byCols
	}
	idx = byCols[ck]
	if idx == nil {
		idx = &index{cols: cols, buckets: map[string][]rel.Tuple{}}
		byCols[ck] = idx
		e.indexesBuilt.Add(1)
	}
	return idx
}

// probe returns the tuples of r whose projection onto cols equals vals (one
// value per column): it catches the index up with r's insert log if r has
// grown, then looks the key up. kb is a reusable key buffer. The result is
// a shared index bucket and must not be mutated.
func (e *Engine) probe(r *rel.Relation, cols []int, vals []string, kb *[]byte) []rel.Tuple {
	key := appendProbeKey((*kb)[:0], vals)
	*kb = key
	idx := e.getIndex(r, cols)
	idx.mu.RLock()
	if idx.consumed == r.Version() {
		b := idx.buckets[string(key)]
		idx.mu.RUnlock()
		return b
	}
	idx.mu.RUnlock()
	idx.mu.Lock()
	defer idx.mu.Unlock()
	added := r.AddedSince(idx.consumed)
	for _, t := range added {
		k := bucketKey(t, idx.cols)
		idx.buckets[k] = append(idx.buckets[k], t)
	}
	idx.consumed += uint64(len(added))
	return idx.buckets[string(key)]
}

// ProbeByKeyBatchYield invokes yield once per distinct tuple of pred whose
// projection onto cols equals one of keys, building (or incrementally
// catching up) the same lazy hash indexes that regular probe steps use.
// Every key must supply len(cols) values. Tuples stream out as
// the keys are probed — nothing beyond the dedup set is materialized —
// which is the server-side substrate for netpeer's chunked bind responses.
// Tuples come out key by key, each key's matches in insertion order.
// Returning ErrStop from yield ends the stream without error.
func (e *Engine) ProbeByKeyBatchYield(pred string, cols []int, keys [][]string, yield func(rel.Tuple) error) error {
	if len(cols) == 0 {
		return fmt.Errorf("engine: ProbeByKeyBatch on %s needs at least one column", pred)
	}
	r := e.data.Relation(pred)
	if r == nil {
		return nil
	}
	for _, c := range cols {
		if c < 0 || c >= r.Arity() {
			return fmt.Errorf("engine: ProbeByKeyBatch column %d out of range for %s/%d", c, pred, r.Arity())
		}
	}
	for _, key := range keys {
		if len(key) != len(cols) {
			return fmt.Errorf("engine: ProbeByKeyBatch key %v has %d values, want %d", key, len(key), len(cols))
		}
	}
	seen := map[string]bool{}
	var kb []byte
	for _, key := range keys {
		e.probes.Add(1)
		for _, t := range e.probe(r, cols, key, &kb) {
			if k := t.Key(); !seen[k] {
				seen[k] = true
				if err := yield(t); err != nil {
					if errors.Is(err, ErrStop) {
						return nil
					}
					return err
				}
			}
		}
	}
	return nil
}

// ProbeByKeyBatch is ProbeByKeyBatchYield materialized: it returns the
// distinct matching tuples as a slice, in yield order.
func (e *Engine) ProbeByKeyBatch(pred string, cols []int, keys [][]string) ([]rel.Tuple, error) {
	var out []rel.Tuple
	err := e.ProbeByKeyBatchYield(pred, cols, keys, func(t rel.Tuple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamScan invokes yield once per tuple of pred, in insertion order (no
// sort, no materialization — the insert log is already distinct). It is the
// streaming substrate for the netpeer server's "scan" op. Returning ErrStop from yield ends the
// stream without error. An absent relation yields nothing.
func (e *Engine) StreamScan(pred string, yield func(rel.Tuple) error) error {
	r := e.data.Relation(pred)
	if r == nil {
		return nil
	}
	e.scans.Add(1)
	for _, t := range r.AddedSince(0) {
		if err := yield(t); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	return nil
}

func colsKey(cols []int) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// plan fetches a compiled plan from the cache under key, compiling q on a
// miss. EvalCQ/EvalUCQ key by the alpha-renamed canonical form (answers are
// invariant under variable renaming and emission is slot-based); Enumerate
// must key by the literal query instead, because its substitutions expose
// the plan's variable names.
func (e *Engine) plan(key string, q lang.CQ) (*Plan, error) {
	if v, ok := e.plans.lru.Get(key); ok {
		return v.(*Plan), nil
	}
	p, err := e.compile(q, -1)
	if err != nil {
		return nil, err
	}
	e.plans.lru.Put(key, p)
	return p, nil
}

// StreamCQ invokes yield once per distinct head tuple of q, in discovery
// order (no sort, no result materialization beyond the dedup set), so
// callers can forward rows incrementally — the netpeer server streams
// eval results over the wire through this hook instead of buffering the
// whole answer. Returning ErrStop from yield ends the stream without error. The yielded tuple is freshly allocated;
// callers may keep it.
func (e *Engine) StreamCQ(q lang.CQ, yield func(rel.Tuple) error) error {
	p, err := e.plan(q.Canonical(), q)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	err = e.run(p, nil, func(slots []string) error {
		head := make(rel.Tuple, len(p.head))
		for i, h := range p.head {
			if h.slot >= 0 {
				head[i] = slots[h.slot]
			} else {
				head[i] = h.constVal
			}
		}
		if k := head.Key(); !seen[k] {
			seen[k] = true
			return yield(head)
		}
		return nil
	})
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// EvalCQ evaluates a conjunctive query with set semantics and returns the
// distinct head tuples, sorted — the indexed equivalent of rel.EvalCQ.
func (e *Engine) EvalCQ(q lang.CQ) ([]rel.Tuple, error) {
	var out []rel.Tuple
	if err := e.StreamCQ(q, func(t rel.Tuple) error {
		out = append(out, t)
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// maxUCQFanout caps the worker pool evaluating UCQ disjuncts concurrently
// (mirrors the netpeer executor's fan-out, so local and distributed UCQ
// evaluation share the same concurrency shape).
const maxUCQFanout = 8

// EvalUCQ evaluates a union of conjunctive queries, returning the distinct
// union of the disjuncts' answers, sorted — the indexed equivalent of
// rel.EvalUCQ. Disjuncts are independent and concurrent evaluations are
// safe with each other, so they fan out over a bounded worker pool; on
// error the first failing disjunct (by position) wins.
func (e *Engine) EvalUCQ(u lang.UCQ) ([]rel.Tuple, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	n := len(u.Disjuncts)
	groups := make([][]rel.Tuple, n)
	if n <= 1 {
		for i, q := range u.Disjuncts {
			rows, err := e.EvalCQ(q)
			if err != nil {
				return nil, err
			}
			groups[i] = rows
		}
		return rel.DistinctSorted(groups...), nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(n, maxUCQFanout); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				groups[i], errs[i] = e.EvalCQ(u.Disjuncts[i])
			}
		}()
	}
	for i := range u.Disjuncts {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rel.DistinctSorted(groups...), nil
}

// Enumerate invokes yield once per substitution grounding every atom of
// body in the instance (comparisons in comps are applied as filters once
// bound). Returning ErrStop from yield ends the enumeration without error.
// This is the indexed substrate for callers that need raw matches rather
// than head tuples (the chase's TGD matching).
func (e *Engine) Enumerate(body []lang.Atom, comps []lang.Comparison, yield func(lang.Subst) error) error {
	var head []lang.Term
	for _, a := range body {
		head = a.Vars(head)
	}
	q := lang.CQ{Head: lang.Atom{Pred: "_enum", Args: head}, Body: body, Comps: comps}
	// Literal key, NOT Canonical(): two alpha-equivalent bodies with
	// different variable names must not share a plan here, since the
	// yielded substitutions carry the plan's variable names.
	p, err := e.plan("enum|"+q.String(), q)
	if err != nil {
		return err
	}
	err = e.run(p, nil, func(slots []string) error {
		s := lang.NewSubst()
		for i, name := range p.slotNames {
			s[name] = lang.Const(slots[i])
		}
		return yield(s)
	})
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// ExistsMatch reports whether at least one substitution grounds every atom
// in the instance. Unlike Enumerate it never caches the plan: its intended
// callers (the chase's head-satisfaction test) embed per-match constants,
// so each query is one-shot and caching would only churn the plan LRU.
func (e *Engine) ExistsMatch(atoms []lang.Atom) (bool, error) {
	var head []lang.Term
	for _, a := range atoms {
		head = a.Vars(head)
	}
	q := lang.CQ{Head: lang.Atom{Pred: "_exists", Args: head}, Body: atoms}
	p, err := e.compile(q, -1)
	if err != nil {
		return false, err
	}
	found := false
	err = e.run(p, nil, func([]string) error {
		found = true
		return ErrStop
	})
	if err != nil && !errors.Is(err, ErrStop) {
		return false, err
	}
	return found, nil
}

// EvalDatalog computes the least fixpoint of the datalog program given by
// rules over base using semi-naive evaluation with indexed joins: per round
// the pivot atom scans the previous round's delta and the remaining atoms
// probe hash indexes on the accumulating total instance. It returns a new
// instance containing base plus all derived facts — the indexed equivalent
// of rel.EvalDatalog.
func EvalDatalog(rules []lang.CQ, base *rel.Instance) (*rel.Instance, error) {
	for _, r := range rules {
		if !r.IsSafe() {
			return nil, fmt.Errorf("engine: unsafe rule %s", r)
		}
	}
	total := base.Clone()
	e := New(total)

	// One plan per (rule, pivot): the pivot atom is forced first and reads
	// the round's delta; the rest are ordered greedily and probe total.
	type pivotPlan struct {
		rule lang.CQ
		plan *Plan
	}
	var plans []pivotPlan
	for _, rule := range rules {
		for pivot := range rule.Body {
			p, err := e.compile(rule, pivot)
			if err != nil {
				return nil, err
			}
			plans = append(plans, pivotPlan{rule: rule, plan: p})
		}
	}

	delta := base.Clone()
	for {
		next := rel.NewInstance()
		for _, pp := range plans {
			if delta.Relation(pp.plan.steps[0].pred) == nil {
				continue
			}
			p := pp.plan
			err := e.run(p, delta, func(slots []string) error {
				tup := make(rel.Tuple, len(p.head))
				for i, h := range p.head {
					if h.slot >= 0 {
						tup[i] = slots[h.slot]
					} else {
						tup[i] = h.constVal
					}
				}
				if r := total.Relation(p.headPred); r == nil || !r.Contains(tup) {
					if _, err := next.Add(p.headPred, tup); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if next.Size() == 0 {
			return total, nil
		}
		for _, pred := range next.Relations() {
			for _, t := range next.Relation(pred).Tuples() {
				if _, err := total.Add(pred, t); err != nil {
					return nil, err
				}
			}
		}
		delta = next
	}
}
