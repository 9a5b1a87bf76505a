// Package pdms is the public API of the peer data management system: build
// a network of peers, schemas, semantic mappings and stored data — either
// programmatically or from the textual PPL format — then pose conjunctive
// queries at any peer, reformulate them onto stored relations (Halevy, Ives,
// Suciu, Tatarinov: "Schema Mediation in Peer Data Management Systems",
// ICDE 2003), and execute them.
//
// Quick start:
//
//	net, err := pdms.Load(`
//	    storage FH.doc(s, l) in FH:Doctor(s, l)
//	    define H:Doctor(s, l) :- FH:Doctor(s, l)
//	    fact FH.doc("d1", "er")
//	`)
//	ans, err := net.Query(`q(s) :- H:Doctor(s, l)`)
package pdms

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/rel"
	"repro/internal/store"
)

// answerCacheSize and reformCacheSize bound the per-network LRU caches;
// traceRingSize bounds the tracer's buffer of recent query traces.
const (
	answerCacheSize = 512
	reformCacheSize = 256
	traceRingSize   = 64
)

// Network is a PDMS instance: the specification plus stored data.
// Construct with New or Load. Queries, reformulations and mutations
// (Extend, AddFact) may be issued concurrently; mutations take a write
// lock, reads share a read lock.
//
// Queries execute through an indexed engine (internal/engine) and their
// answers are cached in an LRU keyed by the canonicalized query, the spec
// generation, and the *generation vector* of exactly the stored relations
// the query's rewriting touches (each relation's rel.Instance.Gen insert
// counter). An AddFact on relation R therefore invalidates only cached
// answers whose rewriting mentions R — answers for disjoint queries keep
// hitting across the mutation — while Extend (which can change every
// rewriting) bumps the spec generation and so invalidates everything.
// Cached results are shared — callers must not mutate returned answer
// slices.
type Network struct {
	mu   sync.RWMutex
	spec *ppl.PDMS     // guarded by mu (Extend swaps it; queries read it)
	data *rel.Instance // guarded by mu (all mutation goes through AddFact)
	opts Options
	eng  *engine.Engine
	// specGen counts spec mutations (Extend); it keys the reformulation
	// cache and is one component of every answer-cache key. Data mutations
	// never bump it (AddFact cannot change reformulations) — they advance
	// the mutated relation's own insert counter instead, which answer keys
	// embed per relation. Stale keys simply never match and age out of the
	// LRUs. Guarded by mu.
	specGen uint64
	// invalidations counts generation-bumping mutation events (AddFact
	// that inserted a new tuple, every Extend) for observability; written
	// under the write lock, read under either lock. Guarded by mu.
	invalidations uint64
	answers       *engine.LRU
	reforms       *engine.LRU
	// tracer samples Query/QueryVia traces (off until its sampling knob is
	// set); queryHist times every query regardless of sampling.
	tracer    *obs.Tracer
	queryHist *obs.Histogram
	// dstore is the durable segment journal (nil for in-memory networks).
	// Set once during construction, before the network is shared; writes
	// flow through the instance's append hooks, so no extra locking here.
	dstore *store.Dir
}

func newNetwork(spec *ppl.PDMS, data *rel.Instance, opts Options) *Network {
	return &Network{
		spec:      spec,
		data:      data,
		opts:      opts,
		eng:       engine.New(data),
		answers:   engine.NewLRU(answerCacheSize),
		reforms:   engine.NewLRU(reformCacheSize),
		tracer:    obs.NewTracer(traceRingSize),
		queryHist: obs.NewHistogram(),
	}
}

// Options tunes reformulation. The zero value enables every optimization
// from Section 4.3 of the paper and extracts all rewritings.
type Options struct {
	// MaxNodes caps rule-goal tree size (0 = default 2,000,000).
	MaxNodes int
	// MaxRewritings caps the number of conjunctive rewritings (0 = all).
	MaxRewritings int
	// DisableMemo, DisablePruning, DisablePriority switch off the
	// corresponding Section 4.3 optimizations (for ablation studies).
	DisableMemo     bool
	DisablePruning  bool
	DisablePriority bool
	// DisableSubsumePruning switches off the deep-topology rule-goal-subtree
	// pruning (hopeless-predicate and duplicate-description expansion
	// pruning; core prune.go) — for pruned-vs-unpruned differential testing.
	DisableSubsumePruning bool
	// KeepRedundant keeps rewritings subsumed by others.
	KeepRedundant bool
	// DataDir makes stored relations durable: inserts are journaled to
	// append-only segment files under this directory (internal/store) and
	// construction replays existing segments into a bit-identical instance
	// before applying anything else. Durable networks must be built with
	// Open, Load or LoadWithOptions (New panics — it cannot report replay
	// errors) and closed with Close so buffered frames reach disk. Empty
	// keeps the network purely in memory.
	DataDir string
}

func (o Options) core() core.Options {
	return core.Options{
		MaxNodes:        o.MaxNodes,
		MaxRewritings:   o.MaxRewritings,
		NoMemo:          o.DisableMemo,
		NoPruneUnsat:    o.DisablePruning,
		NoPriority:      o.DisablePriority,
		NoPruneSubsumed: o.DisableSubsumePruning,
		KeepRedundant:   o.KeepRedundant,
	}
}

// New returns an empty network with the given options. New cannot report
// segment-replay errors, so it panics when opts.DataDir is set — durable
// networks are built with Open (or Load/LoadWithOptions).
func New(opts Options) *Network {
	if opts.DataDir != "" {
		panic("pdms: use Open for durable networks (New cannot report replay errors)")
	}
	return newNetwork(ppl.New(), rel.NewInstance(), opts)
}

// Open returns an empty-spec network whose stored relations are durable
// under opts.DataDir: existing segments are replayed into the instance and
// every later insert is journaled. The spec itself is not persisted —
// callers re-apply it (Extend) after Open; only re-added *facts* are
// deduplicated against the recovered data.
func Open(opts Options) (*Network, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("pdms: Open requires Options.DataDir")
	}
	data, dstore, err := openDurable(opts)
	if err != nil {
		return nil, err
	}
	n := newNetwork(ppl.New(), data, opts)
	n.dstore = dstore
	return n, nil
}

// openDurable opens the segment directory, replays it, and attaches the
// journal hooks so subsequent inserts are logged.
func openDurable(opts Options) (*rel.Instance, *store.Dir, error) {
	dstore, err := store.Open(opts.DataDir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	data, _, err := dstore.Recover(0)
	if err != nil {
		return nil, nil, err
	}
	dstore.Attach(data)
	return data, dstore, nil
}

// Load parses a PPL specification (schema declarations, mappings, storage
// descriptions and facts) into a fresh network with default options.
func Load(src string) (*Network, error) {
	return LoadWithOptions(src, Options{})
}

// LoadWithOptions is Load with explicit options. With Options.DataDir set,
// the on-disk segments are replayed first and the specification's facts are
// merged (and journaled) on top — loading the same spec over the same
// directory is idempotent for its facts.
func LoadWithOptions(src string, opts Options) (*Network, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	data := res.Data
	var dstore *store.Dir
	if opts.DataDir != "" {
		recovered, ds, err := openDurable(opts)
		if err != nil {
			return nil, err
		}
		for _, pred := range data.Relations() {
			for _, t := range data.Relation(pred).Tuples() {
				if _, err := recovered.Add(pred, t); err != nil {
					return nil, fmt.Errorf("pdms: journaling %s: %w", pred, err)
				}
			}
		}
		data, dstore = recovered, ds
	}
	n := newNetwork(res.PDMS, data, opts)
	n.dstore = dstore
	return n, nil
}

// Close flushes and fsyncs the durable journal (a no-op for in-memory
// networks). The network must not be mutated afterwards.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dstore == nil {
		return nil
	}
	return n.dstore.Close()
}

// Extend parses additional PPL statements into an existing network — the
// paper's ad hoc extensibility: new peers, mappings and data can join at
// any time (Example 1.1's Earthquake Command Center scenario).
func (n *Network) Extend(src string) error {
	res, err := parser.Parse(src)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Invalidate caches even when the merge fails partway: declarations or
	// mappings may already have been applied, and serving pre-Extend cached
	// answers against a partially-extended spec would be stale. Bumping the
	// spec generation invalidates every answer key, not just the touched
	// relations' — a new mapping can change which relations a rewriting
	// mentions.
	defer func() {
		n.specGen++
		n.invalidations++
	}()
	// Merge declarations, mappings, storage and data.
	for _, name := range res.PDMS.RelationNames() {
		if err := n.spec.DeclareRelation(*res.PDMS.Relation(name)); err != nil {
			return err
		}
	}
	for _, m := range res.PDMS.Mappings() {
		m.ID = "" // re-assign in this network's ID space
		if err := n.spec.AddMapping(m); err != nil {
			return err
		}
	}
	for _, s := range res.PDMS.Storages() {
		s.ID = ""
		if err := n.spec.AddStorage(s); err != nil {
			return err
		}
	}
	for _, pred := range res.Data.Relations() {
		for _, t := range res.Data.Relation(pred).Tuples() {
			if _, err := n.data.Add(pred, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Spec exposes the underlying PPL specification (read-only use intended).
//
//lint:ignore lockcheck deliberate read-only escape hatch: the pointer is swapped atomically-enough under Extend's lock and callers are documented not to mutate through it
func (n *Network) Spec() *ppl.PDMS { return n.spec }

// Data exposes the stored-relation instance. Read-only: mutating it
// directly bypasses the Network's lock (and the per-relation insert
// counters that answer-cache keys are built from are only read safely
// under it), so cached answers could be served stale. All mutation must go
// through AddFact or Extend.
//
//lint:ignore lockcheck deliberate read-only escape hatch: the instance pointer never changes after construction; the doc comment above warns against mutating through it
func (n *Network) Data() *rel.Instance { return n.data }

// AddFact inserts a tuple into a stored relation. The insert advances that
// relation's generation counter, invalidating exactly the cached answers
// whose rewriting mentions it; cached answers for queries over other
// relations survive. A duplicate insert is a no-op and keeps the whole
// cache warm.
func (n *Network) AddFact(stored string, values ...string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.spec.IsStored(stored) {
		return fmt.Errorf("pdms: %q is not a declared stored relation", stored)
	}
	added, err := n.data.Add(stored, rel.Tuple(values))
	if err == nil && added {
		n.invalidations++
	}
	return err
}

// Answer is a query result row.
type Answer = rel.Tuple

// Reformulation is the outcome of reformulating one query.
type Reformulation struct {
	// Rewriting is the union of conjunctive queries over stored relations.
	Rewriting lang.UCQ
	// Stats reports rule-goal tree metrics.
	Stats core.Stats
	// Classification is the Theorem 3.1–3.3 complexity classification; the
	// rewriting is complete (all certain answers) exactly when this is
	// PTIME.
	Classification ppl.Classification
}

// Reformulate reformulates a textual query ("q(x) :- H:Doctor(x, l)") into
// a union of conjunctive queries over stored relations.
func (n *Network) Reformulate(query string) (*Reformulation, error) {
	q, err := parser.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return n.ReformulateCQ(q)
}

// testHookPostKey, when non-nil, runs right after Query/ReformulateCQ
// computes its generation-stamped cache key, while the read lock is held.
// The cache-race regression tests use it to try to interleave a mutation
// at the worst possible moment: because the key snapshot and the
// computation now share one lock section, the mutation must block until
// the computation (and its cache Put) finish.
var testHookPostKey func()

// ReformulateCQ is Reformulate for an already-parsed query. Results are
// cached per canonicalized query until the specification changes (Extend);
// the returned struct is the caller's, but its slices are shared — treat
// the rewriting as read-only.
func (n *Network) ReformulateCQ(q lang.CQ) (*Reformulation, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.reformulateCQLocked(q, nil)
}

// reformulateCQLocked is ReformulateCQ with n.mu already held (any mode).
// The generation snapshot, the cache probe, the computation and the cache
// store all happen inside one lock section: an Extend cannot interleave,
// so an entry keyed with generation g always reflects generation-g state
// (the old code snapshotted the generation under a separate RLock and
// could store a post-Extend rewriting under the pre-Extend key).
func (n *Network) reformulateCQLocked(q lang.CQ, sp *obs.Span) (*Reformulation, error) {
	key := fmt.Sprintf("%d|%s", n.specGen, q.Canonical())
	if testHookPostKey != nil {
		testHookPostKey()
	}
	if v, ok := n.reforms.Get(key); ok {
		ref := v.(Reformulation)
		sp.Set("cached", "true")
		sp.SetInt("rewritings", int64(ref.Rewriting.Len()))
		return &ref, nil
	}
	copts := n.opts.core()
	copts.Trace = sp
	r, err := core.New(n.spec, copts)
	if err != nil {
		return nil, err
	}
	out, err := r.Reformulate(q)
	if err != nil {
		return nil, err
	}
	ref := Reformulation{
		Rewriting:      out.UCQ,
		Stats:          out.Stats,
		Classification: out.Classification,
	}
	sp.SetInt("rewritings", int64(ref.Rewriting.Len()))
	n.reforms.Put(key, ref)
	return &ref, nil
}

// answerKeyLocked builds the answer-cache key for q given its
// reformulation, with n.mu held (any mode): the spec generation, then the
// generation vector of exactly the stored relations the rewriting
// mentions (sorted, so disjunct order cannot split cache entries), then
// the canonicalized query. A mutation of relation R changes the key of
// every query whose rewriting touches R — and only those — while old keys
// never match again and age out of the LRU.
func (n *Network) answerKeyLocked(q lang.CQ, ref *Reformulation) string {
	seen := map[string]bool{}
	var preds []string
	for _, d := range ref.Rewriting.Disjuncts {
		for _, p := range d.Preds() {
			if !seen[p] {
				seen[p] = true
				preds = append(preds, p)
			}
		}
	}
	sort.Strings(preds)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", n.specGen)
	for _, p := range preds {
		fmt.Fprintf(&sb, "|%s=%d", p, n.data.Gen(p))
	}
	sb.WriteByte('|')
	sb.WriteString(q.Canonical())
	return sb.String()
}

// Query reformulates and executes a textual query over the stored data,
// returning the certain answers (all of them when the specification is in
// the tractable fragment). Execution runs through the indexed engine;
// answers are cached under the generation vector of the relations the
// rewriting touches and served until one of *those* relations (or the
// specification) mutates. Callers must not mutate the returned slice.
func (n *Network) Query(query string) ([]Answer, error) {
	return n.query(query, n.tracer.StartTrace("query", obs.Attr{K: "q", V: query}))
}

// query is Query under an optional (possibly nil) trace root, which it
// always ends; the caller renders it afterwards if it wants the tree.
func (n *Network) query(query string, root *obs.Span) ([]Answer, error) {
	defer root.End()
	start := time.Now()
	defer func() { n.queryHist.Observe(time.Since(start)) }()
	q, err := parser.ParseQuery(query)
	if err != nil {
		root.SetErr(err)
		return nil, err
	}
	// The reformulation, the generation-vector snapshot, the cache probe,
	// the evaluation and the cache store share one read-lock section, so no
	// mutation can interleave: an entry keyed with generation vector v
	// always holds the vector-v answer. (The old code released the lock
	// between the snapshot and the computation; an interleaved
	// Extend/AddFact then stored a post-mutation answer under the
	// pre-mutation key, which concurrent old-generation readers hit.)
	n.mu.RLock()
	defer n.mu.RUnlock()
	rs := root.Child("reformulate")
	ref, err := n.reformulateCQLocked(q, rs)
	rs.SetErr(err)
	rs.End()
	if err != nil {
		return nil, err
	}
	key := n.answerKeyLocked(q, ref)
	if testHookPostKey != nil {
		testHookPostKey()
	}
	if v, ok := n.answers.Get(key); ok {
		root.Set("answer_cache", "hit")
		return v.([]Answer), nil
	}
	es := root.Child("eval")
	rows, err := n.eng.EvalUCQSpan(ref.Rewriting, es)
	es.SetErr(err)
	es.End()
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(rows))
	for i, t := range rows {
		out[i] = Answer(t)
	}
	n.answers.Put(key, out)
	return out, nil
}

// Explain runs query with tracing forced (regardless of the sampling
// knob) and returns the rendered trace tree alongside the answers: the
// reformulation's rule-goal expansion, planning, and evaluation stages,
// with timings.
func (n *Network) Explain(query string) (string, []Answer, error) {
	root := n.tracer.ForceTrace("query", obs.Attr{K: "q", V: query})
	ans, err := n.query(query, root)
	if err != nil {
		return root.Render(), nil, err
	}
	return root.Render(), ans, nil
}

// UCQEvaluator executes a reformulated union of conjunctive queries over
// stored relations. Both the local indexed engine (*engine.Engine) and the
// distributed *netpeer.Executor implement it.
type UCQEvaluator interface {
	EvalUCQ(u lang.UCQ) ([]rel.Tuple, error)
}

// QueryVia reformulates query at this network and executes the rewriting
// through exec — typically a *netpeer.Executor, so the stored relations
// may live on remote peers instead of in this network's local instance
// (the full paper pipeline: pose at a peer, reformulate, execute across
// the network). Reformulations are cached as usual; answers are not,
// because remote data is outside the local generation counters — caching
// on the distributed path is the executor's job (its bind-fragment cache
// revalidates against the serving peers' per-relation generations).
func (n *Network) QueryVia(query string, exec UCQEvaluator) ([]Answer, error) {
	return n.queryVia(query, exec, n.tracer.StartTrace("query", obs.Attr{K: "q", V: query}))
}

// SpanUCQEvaluator is a UCQEvaluator that can attach its execution spans
// (per-disjunct evaluation, bind-join batches, remote work) under a trace
// span. *engine.Engine and *netpeer.Executor implement it.
type SpanUCQEvaluator interface {
	UCQEvaluator
	EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error)
}

// queryVia is QueryVia under an optional trace root (see query).
func (n *Network) queryVia(query string, exec UCQEvaluator, root *obs.Span) ([]Answer, error) {
	defer root.End()
	start := time.Now()
	defer func() { n.queryHist.Observe(time.Since(start)) }()
	q, err := parser.ParseQuery(query)
	if err != nil {
		root.SetErr(err)
		return nil, err
	}
	n.mu.RLock()
	rs := root.Child("reformulate")
	ref, err := n.reformulateCQLocked(q, rs)
	rs.SetErr(err)
	rs.End()
	n.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	es := root.Child("eval")
	var rows []rel.Tuple
	if se, ok := exec.(SpanUCQEvaluator); ok && es != nil {
		rows, err = se.EvalUCQSpan(ref.Rewriting, es)
	} else {
		rows, err = exec.EvalUCQ(ref.Rewriting)
	}
	es.SetErr(err)
	es.End()
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(rows))
	for i, t := range rows {
		out[i] = Answer(t)
	}
	return out, nil
}

// ExplainVia runs query through exec with tracing forced and returns the
// rendered trace tree — for a *netpeer.Executor this shows the stitched
// cross-peer span tree, with each serving peer's spans grafted under the
// bind-join batches that produced them — alongside the answers.
func (n *Network) ExplainVia(query string, exec UCQEvaluator) (string, []Answer, error) {
	root := n.tracer.ForceTrace("query", obs.Attr{K: "q", V: query})
	ans, err := n.queryVia(query, exec, root)
	if err != nil {
		return root.Render(), nil, err
	}
	return root.Render(), ans, nil
}

// Tracer exposes the network's query tracer: set its sampling knob to
// start collecting traces, and read recent ones from it (cmd/peerd mounts
// them at /debug/traces).
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// RegisterMetrics registers this network's counters into reg: the answer
// and reformulation cache counters as the "pdms" group, the query latency
// histogram as "pdms.query_seconds", and the embedded engine's counters as
// the "engine" group.
func (n *Network) RegisterMetrics(reg *obs.Registry) {
	n.eng.RegisterMetrics(reg)
	if n.dstore != nil {
		store.RegisterMetrics(reg, n.dstore)
	}
	reg.RegisterHistogram("pdms.query_seconds", n.queryHist)
	reg.RegisterGroup("pdms", func(em *obs.Emitter) {
		cs := n.CacheStats()
		em.Counter("answer_cache.hits", cs.Hits)
		em.Counter("answer_cache.misses", cs.Misses)
		em.Counter("invalidations", cs.Invalidations)
		rs := n.reforms.Stats()
		em.Counter("reform_cache.hits", rs.Hits)
		em.Counter("reform_cache.misses", rs.Misses)
	})
}

// QueryCacheStats reports cumulative answer-cache counters.
type QueryCacheStats struct {
	// Hits and Misses count answer-cache probes. With per-relation
	// generation keys, a miss happens on a cold query, after a mutation of
	// a relation the query's rewriting touches, or after any Extend.
	Hits, Misses uint64
	// Invalidations counts generation-bumping mutation events: AddFact
	// calls that inserted a new tuple plus every Extend. Each one changed
	// the keys of the cached answers touching the mutated relation(s) —
	// duplicate inserts bump nothing and leave the cache warm.
	Invalidations uint64
}

// CacheStats returns cumulative answer-cache counters.
func (n *Network) CacheStats() QueryCacheStats {
	n.mu.RLock()
	inv := n.invalidations
	n.mu.RUnlock()
	st := n.answers.Stats()
	return QueryCacheStats{Hits: st.Hits, Misses: st.Misses, Invalidations: inv}
}

// CertainAnswers computes certain answers directly via the chase oracle
// (test/validation path; exponentially slower than Query on large data but
// independent of the reformulation algorithm). Only supported on
// specifications in the tractable fragment.
func (n *Network) CertainAnswers(query string) ([]Answer, error) {
	q, err := parser.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	rows, err := chase.CertainAnswers(n.spec, n.data, q, chase.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(rows))
	for i, t := range rows {
		out[i] = Answer(t)
	}
	return out, nil
}

// Classify reports the data complexity of certain-answer computation for
// this network and query per Theorems 3.1–3.3.
func (n *Network) Classify(query string) (ppl.Classification, error) {
	q, err := parser.ParseQuery(query)
	if err != nil {
		return ppl.Classification{}, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.spec.Classify(q), nil
}

// Stats summarizes the specification.
func (n *Network) Stats() ppl.Stats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.spec.Stats()
}
