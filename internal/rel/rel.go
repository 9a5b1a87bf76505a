package rel

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Tuple is a row of constant values.
type Tuple []string

// Key returns the tuple's identity as a map key: two tuples of one arity
// share a Key exactly when they are Equal. A NUL inside a value is escaped
// as NUL 0x01 and values are joined by NUL NUL, so no value can forge a
// separator. Key carries identity only, never order: tuples are ordered by
// Compare.
func (t Tuple) Key() string {
	n := 2 * len(t)
	for _, v := range t {
		n += len(v) + strings.Count(v, "\x00")
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, v := range t {
		if i > 0 {
			sb.WriteString("\x00\x00")
		}
		for {
			j := strings.IndexByte(v, 0)
			if j < 0 {
				sb.WriteString(v)
				break
			}
			sb.WriteString(v[:j+1])
			sb.WriteByte(1)
			v = v[j+1:]
		}
	}
	return sb.String()
}

// Compare is the canonical answer order: column by column, each value
// compared bytewise, a tuple that is a proper prefix of another sorting
// first. It allocates nothing. For NUL-free values it is the order of the
// values joined by NUL.
func Compare(a, b Tuple) int { return slices.Compare(a, b) }

// String renders the tuple as (v1, ..., vn).
func (t Tuple) String() string { return "(" + strings.Join(t, ", ") + ")" }

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// fnv64a is the FNV-1a hash the distinct-value sketches use.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Relation is a named set of tuples of fixed arity: one tuple set, one
// append-only insert log, one generation counter and one distinct-value
// sketch per column, all under one mutex. Insert, Contains, Len, Tuples and
// AddedSince are individually safe for concurrent use; a reader that needs
// one atomic point-in-time view across inserts still requires external
// synchronization, which is what pdms.Network's and netpeer.Server's locks
// provide.
type Relation struct {
	name  string
	arity int

	mu sync.Mutex
	// tuples is the tuple set, guarded by mu.
	tuples map[string]Tuple
	// log is the append-only insert log, guarded by mu.
	log []Tuple
	// gen counts inserts (== len(log)). Atomic so generation reads (cache
	// keys, piggybacks) never take the lock.
	gen atomic.Uint64
	// distinct holds one sketch per column, updated on every insert;
	// guarded by mu.
	distinct []sketch

	// hook, when non-nil, observes every successful insert (see
	// SetAppendHook). It must be installed before the relation is shared
	// across goroutines; Insert reads it without synchronization.
	hook AppendHook

	// sortedMu guards the cached deterministic (sorted) tuple order; the
	// cache is tagged with the Version it was built at and rebuilt when the
	// relation has grown past it.
	sortedMu sync.Mutex
	// sorted is the cached sorted order, guarded by sortedMu.
	sorted []Tuple
	// sortedVer is the Version sorted was built at, guarded by sortedMu.
	sortedVer uint64
}

// AppendHook observes one successful insert. It is invoked under the
// relation's lock, after the tuple has been appended to the log and the
// generation bumped, with the (defensively copied) tuple and the new
// generation — in exactly the log's order. A non-nil error aborts Insert
// with that error; the tuple remains inserted in memory, so hook errors mean
// "applied but possibly not durable" and callers (the storage tier) must
// treat the backing journal as failed.
type AppendHook func(t Tuple, gen uint64) error

// Name returns the relation's predicate name (fixed at creation).
func (r *Relation) Name() string { return r.name }

// Arity returns the relation's column count (fixed at creation).
func (r *Relation) Arity() int { return r.arity }

// SetAppendHook installs h as the relation's insert observer (nil removes
// it). It must be called before the relation is shared across goroutines:
// Insert reads the hook without synchronization.
func (r *Relation) SetAppendHook(h AppendHook) { r.hook = h }

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity, tuples: map[string]Tuple{}, distinct: make([]sketch, arity)}
}

// Insert adds a tuple (set semantics). It reports whether the tuple was new
// and returns an error on arity mismatch. A new tuple also updates the
// per-column distinct-value sketches and bumps the generation counter.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("rel: %s arity %d, tuple %v has %d values", r.name, r.arity, t, len(t))
	}
	k := t.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tuples[k]; ok {
		return false, nil
	}
	cp := make(Tuple, len(t))
	copy(cp, t)
	r.tuples[k] = cp
	r.log = append(r.log, cp)
	for i, v := range cp {
		r.distinct[i].add(fnv64a(v))
	}
	gen := r.gen.Add(1)
	if h := r.hook; h != nil {
		// Still under the lock: the hook sees inserts in exactly the log's
		// order, which is what lets the durable tier mirror the log frame
		// for frame.
		if err := h(cp, gen); err != nil {
			return true, err
		}
	}
	return true, nil
}

// Version returns the number of inserts so far: monotonic, bumped once per
// new tuple, never by duplicates. Cache keys and the netpeer gens piggyback
// are built from this value; derived structures (engine indexes) catch up
// through AddedSince.
func (r *Relation) Version() uint64 { return r.gen.Load() }

// AddedSince returns the tuples inserted after version v, in insertion
// order. Callers must not mutate the result. Tuples are never deleted, so
// the log suffix is exactly what changed since v: this is what lets derived
// structures (hash indexes) catch up incrementally, and AddedSince(0)
// enumerates the whole relation (distinct by construction) without a sort.
func (r *Relation) AddedSince(v uint64) []Tuple {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v > uint64(len(r.log)) {
		return nil
	}
	return r.log[v:]
}

// Contains reports tuple membership.
func (r *Relation) Contains(t Tuple) bool {
	k := t.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.tuples[k]
	return ok
}

// Len returns the cardinality.
func (r *Relation) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tuples)
}

// Tuples returns the tuples in deterministic (sorted) order. The result is
// cached per Version and shared: callers must not mutate it.
func (r *Relation) Tuples() []Tuple {
	r.sortedMu.Lock()
	defer r.sortedMu.Unlock()
	// Read the version before snapshotting: a cache built here can only
	// ever hold tuples beyond v, never miss one at v, so a stale entry is
	// impossible (any extra tuple implies a later Version() > v, which
	// forces a rebuild).
	v := r.Version()
	if r.sorted != nil && r.sortedVer == v {
		return r.sorted
	}
	out := slices.Clone(r.AddedSince(0))
	slices.SortFunc(out, Compare)
	r.sorted, r.sortedVer = out, v
	return out
}

// DistinctSorted returns the distinct union of the given tuple groups in
// canonical (Compare) order — the answer-set semantics every UCQ evaluator
// shares. The groups need be neither sorted nor distinct, and are not
// modified: they are concatenated into a fresh slice, sorted once and
// compacted.
func DistinctSorted(groups ...[]Tuple) []Tuple {
	out := slices.Concat(groups...)
	slices.SortFunc(out, Compare)
	return slices.CompactFunc(out, Tuple.Equal)
}

// Instance maps predicate names to relations. The zero value is unusable;
// use NewInstance.
//
// The relation map self-synchronizes: lookups take the read side of an
// internal RWMutex and lazy creation (Add on a new predicate) the write
// side, so concurrent Adds, catalog walks and generation reads are safe
// without external locking. The lock covers map *membership* only —
// relation contents self-synchronize — so no caller ever holds it across
// tuple work.
type Instance struct {
	// mu guards the relation map and the hook factory. Creation is the
	// only write: two concurrent Adds to a fresh predicate must not both
	// install a relation (one would overwrite — and so lose — the other's
	// tuples), and a map insert must not race a concurrent reader.
	mu   sync.RWMutex
	rels map[string]*Relation // guarded by mu
	// hooks, when non-nil, supplies the append hook for every relation the
	// instance holds or later creates (see SetAppendHook). Guarded by mu:
	// creation paths read it under the write lock they already hold.
	hooks HookFactory
}

// HookFactory returns the append hook for one relation of an instance,
// given its predicate name and arity — or nil for none. The storage tier
// uses this to journal every relation an instance creates, including those
// materialized lazily by Add.
type HookFactory func(pred string, arity int) AppendHook

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: map[string]*Relation{}}
}

// SetAppendHook installs f as the instance's append-hook factory (nil
// removes it): f is consulted for every relation the instance currently
// holds and every relation Add creates later. Like Relation.SetAppendHook
// it must be called before the instance is shared across goroutines (the
// per-relation hook fields are read without synchronization by Insert).
// Clones never inherit hooks — they are independent in-memory copies, not
// views of the journaled instance.
func (ins *Instance) SetAppendHook(f HookFactory) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	ins.hooks = f
	for name, r := range ins.rels {
		if f == nil {
			r.SetAppendHook(nil)
			continue
		}
		r.SetAppendHook(f(name, r.arity))
	}
}

// Clone returns a deep copy of the instance, preserving every relation's
// insert log, generation counter and statistics sketches (so
// generation-keyed caches and planner estimates carry over). The copy
// carries no append hooks.
func (ins *Instance) Clone() *Instance {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	rels := make(map[string]*Relation, len(ins.rels))
	for name, r := range ins.rels {
		rels[name] = r.clone()
	}
	return &Instance{rels: rels}
}

// clone returns an independent copy of r without its hook. The copy is
// built in locals and published fully formed: it is unshared, so only r's
// lock is needed.
func (r *Relation) clone() *Relation {
	r.mu.Lock()
	defer r.mu.Unlock()
	distinct := make([]sketch, len(r.distinct))
	for c := range r.distinct {
		distinct[c] = r.distinct[c].clone()
	}
	nr := &Relation{
		name:   r.name,
		arity:  r.arity,
		tuples: maps.Clone(r.tuples),
		// Full-slice expression: later appends to either log must not share
		// backing storage.
		log:      r.log[:len(r.log):len(r.log)],
		distinct: distinct,
	}
	nr.gen.Store(r.gen.Load())
	return nr
}

// Relation returns the named relation, or nil if absent.
func (ins *Instance) Relation(pred string) *Relation {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	return ins.rels[pred]
}

// Relations returns the predicate names present, sorted.
func (ins *Instance) Relations() []string {
	ins.mu.RLock()
	out := make([]string, 0, len(ins.rels))
	for name := range ins.rels {
		out = append(out, name)
	}
	ins.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Gen returns the per-relation generation of pred: the number of inserts
// it has absorbed (Relation.Version), or 0 when the relation is absent. A relation that exists but holds no
// tuples is indistinguishable from an absent one, which is sound for
// generation keying: both denote the same (empty) contents. Callers key
// caches by vectors of these counters so a mutation of one relation
// invalidates only entries that touch it.
func (ins *Instance) Gen(pred string) uint64 {
	if r := ins.Relation(pred); r != nil {
		return r.Version()
	}
	return 0
}

// EnsureRelation returns the named relation, creating it empty with the
// given arity if absent. Recovery uses it to rebuild relations with their
// recorded arity. Creation is serialized under the instance lock, so
// concurrent ensurers agree on one relation.
func (ins *Instance) EnsureRelation(pred string, arity int) *Relation {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return ins.ensureLocked(pred, arity)
}

// ensureLocked returns the named relation, creating it (with its hook, if
// a factory is installed) when absent. Callers hold ins.mu exclusively.
func (ins *Instance) ensureLocked(pred string, arity int) *Relation {
	if r, ok := ins.rels[pred]; ok {
		return r
	}
	r := NewRelation(pred, arity)
	if ins.hooks != nil {
		r.SetAppendHook(ins.hooks(pred, r.arity))
	}
	ins.rels[pred] = r
	return r
}

// Add inserts a tuple into pred, creating the relation on first use. It
// reports whether the tuple was new. Lookups take the instance lock's read
// side and first-use creation its write side (double-checked, so racing
// creators converge on one relation); the tuple insert itself runs outside
// the instance lock, so concurrent Adds to different relations never
// serialize here.
func (ins *Instance) Add(pred string, t Tuple) (bool, error) {
	ins.mu.RLock()
	r, ok := ins.rels[pred]
	ins.mu.RUnlock()
	if !ok {
		ins.mu.Lock()
		r = ins.ensureLocked(pred, len(t))
		ins.mu.Unlock()
	}
	return r.Insert(t)
}

// MustAdd is Add that panics on arity errors; for tests and loaders of
// already-validated data.
func (ins *Instance) MustAdd(pred string, vals ...string) {
	if _, err := ins.Add(pred, Tuple(vals)); err != nil {
		panic(err)
	}
}

// Size returns the total number of tuples across relations.
func (ins *Instance) Size() int {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	n := 0
	for _, r := range ins.rels {
		n += r.Len()
	}
	return n
}

// String renders the instance deterministically (for golden tests).
func (ins *Instance) String() string {
	var sb strings.Builder
	for _, name := range ins.Relations() {
		r := ins.Relation(name)
		for _, t := range r.Tuples() {
			sb.WriteString(name)
			sb.WriteString(t.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
