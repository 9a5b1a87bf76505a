package netpeer

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// defaultBindPipeline is how many bind batches an executor keeps in flight
// per connection: batch i+1 ships while batch i's rows stream back.
const defaultBindPipeline = 4

// defaultBusyRetries and defaultBusyBackoff shape the client-side response
// to admission-control shedding: a shed request retries up to
// defaultBusyRetries times, sleeping a uniform random duration in
// (0, defaultBusyBackoff<<attempt] before each retry (full jitter).
const (
	defaultBusyRetries = 3
	defaultBusyBackoff = 10 * time.Millisecond
	// maxBusyBackoff caps one busy-retry backoff step regardless of the
	// attempt count (keeps long retry budgets from sleeping unboundedly).
	maxBusyBackoff = time.Second
)

// defaultIdlePingAfter is the idle age beyond which a pooled connection is
// health-checked (pinged) before reuse. Long enough that busy workloads
// never pay it, short enough that a peer restart between bursts is caught
// by the ping instead of the first real request.
const defaultIdlePingAfter = 60 * time.Second

// Executor evaluates reformulated unions of conjunctive queries across the
// peer network. It routes each conjunctive rewriting to the single peer
// serving all its stored relations when possible (full push-down); when a
// rewriting spans peers it runs a streaming, adaptive, pipelined
// bind-join:
//
//   - Atoms are ordered by the engine planner's selectivity heuristic
//     (cardinalities learned at Discover time and refreshed from the
//     estimates piggybacked on every response).
//   - The partial join is materialized once in memory and extended
//     incrementally per atom — remote rows stream chunk by chunk straight
//     into a hash join against it, so no per-step prefix re-evaluation and
//     no whole-fragment buffering happens.
//   - Per atom the executor ships the distinct join-key values bound so
//     far ("bind" op) in pipelined batches, unless the peer's advertised
//     cardinality says the whole selection-pushed relation is smaller than
//     the key set — then fetching it outright moves fewer bytes, and the
//     executor adapts.
//   - Fetched and probed fragments are cached *across queries* keyed by
//     (peer, canonical atom pattern, bound-key-set hash) in a size-bounded
//     LRU. Every response piggybacks the serving peer's per-relation
//     generation; a cached fragment is served again only after a tiny
//     row-free "gens" round trip confirms its stamped generation is still
//     current, so a repeat of an identical query ships zero rows while
//     mutations on the peer invalidate exactly the fragments of the
//     mutated relation.
//
// UCQ disjuncts are evaluated concurrently over a worker pool; all methods
// are safe for concurrent use, multiplexing wire traffic over per-address
// connection pools (a single Client is not safe for concurrent use).
type Executor struct {
	mu sync.Mutex
	// addr maps each stored relation to the address of the serving peer.
	// Guarded by mu.
	addr map[string]string
	// card holds per-relation cardinality estimates, seeded by Discover
	// and refreshed from the estimates piggybacked on every response.
	// They feed the join-order heuristic and the adaptive bind-vs-fetch
	// choice (stale values shift the plan, never the answer). Guarded by
	// mu.
	card map[string]int
	// dist holds per-relation per-column distinct-value estimates, seeded
	// by Discover and refreshed from the Distinct piggyback on every
	// response. Like card they only steer the join order (via
	// engine.OrderBodyStats); relations whose serving peer predates the
	// Distinct extension are simply absent, and ordering falls back to
	// cardinality alone. Guarded by mu.
	dist map[string][]float64
	// pools holds one connection pool per peer address. Guarded by mu.
	pools map[string]*pool
	// abort interrupts in-flight busy-retry backoff sleeps: Close closes
	// the current channel (surfacing the busy error to sleepers instead of
	// pinning shutdown behind seconds of backoff) and installs a fresh one,
	// since a closed executor stays usable. Guarded by mu.
	abort chan struct{}
	// frags caches cross-peer atom fragments across queries.
	frags *fragCache
	// counters aggregates wire traffic across all pooled connections.
	counters Counters

	// Tuning, set by NewExecutor to the package defaults and never changed
	// afterwards (in-package tests override them before the first query).
	bindPipeline    int           // bind batches in flight per connection
	idlePingAfter   time.Duration // idle age past which a pooled conn is pinged
	maxConnsPerAddr int           // open connections (idle + borrowed) per peer
	busyRetries     int           // retries of a request shed as busy
	busyBackoff     time.Duration // base of the busy-retry backoff
}

// NewExecutor creates an executor with an empty routing table.
func NewExecutor() *Executor {
	return &Executor{
		addr:            map[string]string{},
		card:            map[string]int{},
		dist:            map[string][]float64{},
		pools:           map[string]*pool{},
		abort:           make(chan struct{}),
		frags:           newFragCache(defaultFragEntries, defaultFragBytes),
		bindPipeline:    defaultBindPipeline,
		idlePingAfter:   defaultIdlePingAfter,
		maxConnsPerAddr: defaultMaxConnsPerAddr,
		busyRetries:     defaultBusyRetries,
		busyBackoff:     defaultBusyBackoff,
	}
}

// FragmentStats returns a snapshot of the cross-query fragment-cache
// counters.
func (e *Executor) FragmentStats() FragmentStats { return e.frags.stats() }

// Route declares that the peer at addr serves the given stored relation.
func (e *Executor) Route(pred, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addr[pred] = addr
}

// Discover connects to addr, asks for its catalog, and routes every served
// relation to it, recording cardinalities (and per-column distinct
// estimates, when the peer advertises them) for join ordering.
func (e *Executor) Discover(addr string) error {
	var cards map[string]int
	var dists map[string][]float64
	if err := e.withClient(addr, func(c *Client) error {
		m, d, err := c.CatalogMeta()
		cards, dists = m, d
		return err
	}); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for p, n := range cards {
		e.addr[p] = addr
		e.card[p] = n
		if d, ok := dists[p]; ok {
			e.dist[p] = d
		}
	}
	return nil
}

// updateMeta folds cardinalities and per-column distinct estimates
// piggybacked on responses into the estimate tables (only for relations
// already known, so a response cannot invent routes).
func (e *Executor) updateMeta(preds []string, cards []int, dists [][]float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range preds {
		if _, ok := e.addr[p]; !ok {
			continue
		}
		if i < len(cards) {
			e.card[p] = cards[i]
		}
		if i < len(dists) && len(dists[i]) > 0 {
			e.dist[p] = dists[i]
		}
	}
}

// cardOf returns the current cardinality estimate for pred and whether one
// is known.
func (e *Executor) cardOf(pred string) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n, ok := e.card[pred]
	return n, ok
}

// WireStats returns a snapshot of the executor's cumulative wire counters
// (aggregated across every pooled connection, past and present).
func (e *Executor) WireStats() WireStats { return e.counters.Snapshot() }

// Close closes all pooled connections, aborts in-flight busy-retry
// backoff sleeps (their callers see the busy error immediately instead of
// pinning Close behind up to seconds of backoff), and drops the fragment
// cache. The executor stays usable: later calls dial fresh connections,
// refill the cache, and retry busy errors as usual.
func (e *Executor) Close() error {
	e.mu.Lock()
	pools := e.pools
	e.pools = map[string]*pool{}
	close(e.abort)
	e.abort = make(chan struct{})
	e.mu.Unlock()
	e.frags.clear()
	var first error
	for _, p := range pools {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pool returns (creating if needed) the connection pool for addr.
func (e *Executor) pool(addr string) *pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.pools[addr]
	if !ok {
		p = newPool(addr, &e.counters, e.updateMeta, e.idlePingAfter, e.maxConnsPerAddr)
		e.pools[addr] = p
	}
	return p
}

// withClient borrows a pooled connection to addr and runs fn on it,
// retrying (with full-jitter exponential backoff) when the peer sheds the
// request with an in-band busy error. A shed request never started, so the
// retry is safe for any op; fn may run several times and streaming callers
// must tolerate re-delivery (the executor's join state dedups remote
// tuples, which makes replays idempotent). Close aborts the backoff sleep:
// the pending busy error surfaces immediately rather than holding the
// caller (and shutdown) for the remaining backoff budget.
func (e *Executor) withClient(addr string, fn func(*Client) error) error {
	// Captured once at call start: a Close during any later backoff (or
	// between attempts) of this call closes exactly this channel, while
	// calls arriving after Close get the replacement and retry as usual.
	e.mu.Lock()
	abort := e.abort
	e.mu.Unlock()
	var err error
	for attempt := 0; ; attempt++ {
		err = e.withClientOnce(addr, fn)
		if err == nil || !errors.Is(err, ErrBusy) || attempt >= e.busyRetries {
			return err
		}
		e.counters.busyRetries.Add(1)
		// Full jitter: a uniform sleep in (0, backoff<<attempt] decorrelates
		// the retries of a shed burst instead of replaying it in lockstep.
		// The step is capped so high retry budgets neither overflow the
		// shift nor sleep unboundedly.
		step := e.busyBackoff
		for i := 0; i < attempt && step < maxBusyBackoff; i++ {
			step <<= 1
		}
		if step > maxBusyBackoff {
			step = maxBusyBackoff
		}
		timer := time.NewTimer(time.Duration(1 + rand.Int64N(int64(step))))
		select {
		case <-timer.C:
		case <-abort:
			timer.Stop()
			return err
		}
	}
}

// withClientOnce is one borrow-run-return cycle. Every protocol request
// except add is an idempotent read, so when a *reused* connection fails at
// the transport level (it may have died or desynced while idle) the call
// retries once on a freshly-dialed connection. Broken connections are
// never returned to the pool (put closes them), so a transport error can
// never leave a desynced stream for a later borrower.
func (e *Executor) withClientOnce(addr string, fn func(*Client) error) error {
	p := e.pool(addr)
	c, reused, err := p.get()
	if err != nil {
		return err
	}
	err = fn(c)
	broken := c.broken
	p.put(c)
	if err != nil && broken && reused {
		c2, derr := p.redial()
		if derr != nil {
			return err
		}
		err = fn(c2)
		p.put(c2)
	}
	return err
}

// EvalUCQ evaluates a union of conjunctive rewritings over the network,
// returning the distinct union of the disjuncts' answers, sorted by
// rel.Compare. It is EvalUCQSpan untraced.
func (e *Executor) EvalUCQ(u lang.UCQ) ([]rel.Tuple, error) {
	return e.EvalUCQSpan(u, nil)
}

// EvalUCQSpan evaluates u through engine.EvalDisjuncts — the fan-out the
// local engine uses too — with each disjunct's rows coming back unsorted
// and possibly repeated from evalCQ. Under a non-nil sp every eval.cq
// child holds that disjunct's push-down or per-atom bind-join spans (with
// the serving peers' remote spans adopted under them); a nil sp evaluates
// identically, untraced.
func (e *Executor) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	return engine.EvalDisjuncts(u, sp, e.evalCQ)
}

// EvalCQ evaluates one conjunctive rewriting over the network, returning
// its distinct head tuples sorted by rel.Compare.
func (e *Executor) EvalCQ(q lang.CQ) ([]rel.Tuple, error) {
	rows, err := e.evalCQ(q, nil)
	if err != nil {
		return nil, err
	}
	return rel.DistinctSorted(rows), nil
}

// evalCQ is EvalCQ with an optional span and without the final sort: the
// head tuples come back in arrival order and may repeat. Full push-down
// records one "pushdown" child (the serving peer's remote spans adopt
// under it), cross-peer execution hands the span to the bind-join's
// per-atom instrumentation.
func (e *Executor) evalCQ(q lang.CQ, sp *obs.Span) ([]rel.Tuple, error) {
	addrs := map[string]bool{}
	e.mu.Lock()
	for _, a := range q.Body {
		addr, ok := e.addr[a.Pred]
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("netpeer: no route for stored relation %s", a.Pred)
		}
		addrs[addr] = true
	}
	e.mu.Unlock()

	if len(addrs) == 1 {
		// Full push-down: one peer holds every atom.
		var only string
		for a := range addrs {
			only = a
		}
		ps := sp.Child("pushdown", obs.Attr{K: "addr", V: only})
		defer ps.End()
		var rows []rel.Tuple
		err := e.withClient(only, func(c *Client) error {
			if ps != nil {
				c.traceSpan = ps
				defer func() { c.traceSpan = nil }()
			}
			// A retried attempt starts over: drop the failed one's rows.
			rows = rows[:0]
			return c.EvalStream(q, func(t rel.Tuple) error {
				rows = append(rows, t)
				return nil
			})
		})
		ps.SetErr(err)
		ps.SetInt("rows", int64(len(rows)))
		if err != nil {
			return nil, err
		}
		return rows, nil
	}
	return e.evalStreamingBindJoin(q, sp)
}

// stepShape is the per-atom lowering of the streaming join: how one remote
// tuple is checked against the atom's constants and repeated variables,
// which positions join against the partial result, and which bind new
// variables.
type stepShape struct {
	// constChecks re-verify pushed constants (the server already applied
	// them; the check keeps correctness independent of the transport).
	constChecks []struct {
		pos int
		val string
	}
	// dupChecks pair a position with the first occurrence of the same
	// variable inside the atom: the tuple must agree with itself.
	dupChecks [][2]int
	// keyPoss are the first-occurrence positions of already-bound
	// variables (the join key), parallel to joinVars.
	keyPoss  []int
	joinVars []string
	// newPoss are the first-occurrence positions of new variables,
	// parallel to newVars.
	newPoss []int
	newVars []string
}

// shapeOf classifies atom a's positions given the variables bound so far.
func shapeOf(a lang.Atom, boundVars map[string]bool) stepShape {
	var sh stepShape
	firstPos := map[string]int{}
	for pos, t := range a.Args {
		if t.IsConst() {
			sh.constChecks = append(sh.constChecks, struct {
				pos int
				val string
			}{pos, t.Name})
			continue
		}
		if fp, ok := firstPos[t.Name]; ok {
			sh.dupChecks = append(sh.dupChecks, [2]int{pos, fp})
			continue
		}
		firstPos[t.Name] = pos
		if boundVars[t.Name] {
			sh.keyPoss = append(sh.keyPoss, pos)
			sh.joinVars = append(sh.joinVars, t.Name)
		} else {
			sh.newPoss = append(sh.newPoss, pos)
			sh.newVars = append(sh.newVars, t.Name)
		}
	}
	return sh
}

// evalStreamingBindJoin runs a cross-peer rewriting as a streaming,
// adaptive, pipelined bind-join. The partial join is materialized once as
// tuples over the variables bound so far and extended per atom: remote
// rows stream chunk by chunk into a hash join against it (no scratch
// instance, no per-step prefix re-evaluation). Per atom the executor ships
// the distinct bound join keys in pipelined batches — or, when the
// advertised remote cardinality is smaller than the key set, fetches the
// selection-pushed relation outright. Comparisons apply at the first step
// that grounds them, so impossible keys are never shipped.
//
// Under a non-nil span each atom gets one "atom" child annotated with the
// peer address, the source (fragcache / bind / fetch), key and partial-row
// counts; the serving peer's remote spans (and the per-batch bind spans)
// adopt under it.
func (e *Executor) evalStreamingBindJoin(q lang.CQ, sp *obs.Span) ([]rel.Tuple, error) {
	if !q.IsSafe() {
		return nil, fmt.Errorf("netpeer: unsafe query %s", q)
	}
	// Variable-free comparisons gate the whole query, exactly once.
	compApplied := make([]bool, len(q.Comps))
	for ci, c := range q.Comps {
		if len(c.Vars(nil)) == 0 {
			compApplied[ci] = true
			if !c.Op.EvalConst(c.L, c.R) {
				return nil, nil
			}
		}
	}

	order := e.planOrder(q)
	varCol := map[string]int{} // variable -> column in partial rows
	var varOrder []string
	boundVars := map[string]bool{}
	// Seeded with the unit row: identity of the join.
	partial := []rel.Tuple{{}}

	for _, bi := range order {
		a := q.Body[bi]
		as := sp.Child("atom", obs.Attr{K: "pred", V: a.Pred})
		sh := shapeOf(a, boundVars)

		joinCols := make([]int, len(sh.joinVars))
		for i, v := range sh.joinVars {
			joinCols[i] = varCol[v]
		}
		// Hash the partial rows on the join columns, collecting the
		// distinct bound keys — the semi-join payload — in first-seen order.
		useBind := len(sh.joinVars) > 0
		var keyRows [][]string
		var kb []byte
		hash := make(map[string][]int, len(partial))
		for i, row := range partial {
			kb = kb[:0]
			for _, c := range joinCols {
				kb = engine.AppendKeyPart(kb, row[c])
			}
			idx, seen := hash[string(kb)]
			if !seen && useBind {
				key := make([]string, len(joinCols))
				for j, c := range joinCols {
					key[j] = row[c]
				}
				keyRows = append(keyRows, key)
			}
			hash[string(kb)] = append(idx, i)
		}
		// The adaptive choice: ship keys, or fetch the (selection-pushed)
		// relation when its advertised cardinality is smaller than the key
		// set.
		if useBind {
			if card, ok := e.cardOf(a.Pred); ok && card < len(keyRows) {
				useBind = false
			}
		}

		// join consumes one (already filtered, deduplicated) remote tuple.
		// Both the wire path and the fragment-cache path feed it.
		var next []rel.Tuple
		join := func(t rel.Tuple) {
			kb = kb[:0]
			for _, p := range sh.keyPoss {
				kb = engine.AppendKeyPart(kb, t[p])
			}
			for _, pi := range hash[string(kb)] {
				nr := make(rel.Tuple, len(varOrder)+len(sh.newPoss))
				copy(nr, partial[pi])
				for j, p := range sh.newPoss {
					nr[len(varOrder)+j] = t[p]
				}
				next = append(next, nr)
			}
		}

		addr := e.addrOf(a.Pred)
		as.Set("addr", addr)
		if useBind {
			as.SetInt("keys", int64(len(keyRows)))
		}

		// Cross-query fragment cache: an identical fetch (same peer, same
		// canonical atom pattern, same bound-key set) whose relation
		// generation a gens round trip confirms unchanged is answered from
		// memory — no rows cross the wire.
		fragKey := fragmentKey(addr, a, sh.keyPoss, keyRows, useBind)
		if rows, ok := e.fragLookup(addr, a.Pred, fragKey); ok {
			for _, t := range rows {
				join(t)
			}
			as.Set("src", "fragcache")
			as.SetInt("fetched", int64(len(rows)))
		} else if err := e.fetchFragment(a, sh, addr, fragKey, keyRows, useBind, as, join); err != nil {
			as.SetErr(err)
			as.End()
			return nil, err
		}

		partial = next
		for _, v := range sh.newVars {
			varCol[v] = len(varOrder)
			varOrder = append(varOrder, v)
			boundVars[v] = true
		}
		// Apply every comparison that just became ground, pruning the
		// partial join before its keys are shipped to the next peer.
		for ci, c := range q.Comps {
			if compApplied[ci] {
				continue
			}
			ground := true
			for _, v := range c.Vars(nil) {
				if !boundVars[v.Name] {
					ground = false
					break
				}
			}
			if !ground {
				continue
			}
			compApplied[ci] = true
			kept := partial[:0]
			for _, row := range partial {
				if evalComp(c, varCol, row) {
					kept = append(kept, row)
				}
			}
			partial = kept
		}
		as.SetInt("partial", int64(len(partial)))
		as.End()
		if len(partial) == 0 {
			// The partial join is already empty, so the full join is too:
			// skip the remaining fetches entirely.
			return nil, nil
		}
	}

	// Mirror the engine: a comparison whose variables the body never binds
	// is an error — but only observable when a complete match exists.
	for ci, c := range q.Comps {
		if !compApplied[ci] {
			return nil, fmt.Errorf("netpeer: comparison %s not bound by body", c)
		}
	}

	out := make([]rel.Tuple, 0, len(partial))
	for _, row := range partial {
		h := make(rel.Tuple, len(q.Head.Args))
		for i, t := range q.Head.Args {
			if t.IsConst() {
				h[i] = t.Name
			} else {
				h[i] = row[varCol[t.Name]]
			}
		}
		out = append(out, h)
	}
	return out, nil
}

// fetchFragment fetches atom a's fragment from its peer at addr — by
// shipping keyRows in pipelined bind batches, or as one selection-pushed
// fetch — filtering and deduplicating each arriving tuple before handing
// it to join, and caches the fragment under fragKey when it is a point
// snapshot of the relation.
func (e *Executor) fetchFragment(a lang.Atom, sh stepShape, addr, fragKey string, keyRows [][]string, useBind bool, as *obs.Span, join func(rel.Tuple)) error {
	// process filters and dedups each arriving remote tuple, feeds the
	// join, and accumulates the fragment for caching. seenRemote dedups
	// across bind batches and makes the retries withClient may perform
	// idempotent.
	seenRemote := map[string]bool{}
	var fragRows []rel.Tuple
	var fragBytes int64
	fragTooBig := false
	process := func(t rel.Tuple) error {
		if len(t) != a.Arity() {
			return fmt.Errorf("netpeer: %s/%d: remote row has %d values", a.Pred, a.Arity(), len(t))
		}
		for _, cc := range sh.constChecks {
			if t[cc.pos] != cc.val {
				return nil
			}
		}
		for _, d := range sh.dupChecks {
			if t[d[0]] != t[d[1]] {
				return nil
			}
		}
		k := t.Key()
		if seenRemote[k] {
			return nil
		}
		seenRemote[k] = true
		if !fragTooBig {
			fragRows = append(fragRows, t)
			for _, v := range t {
				fragBytes += int64(len(v))
			}
			if fragBytes > maxFragEntryBytes {
				fragTooBig = true
				fragRows = nil
			}
		}
		join(t)
		return nil
	}
	// tap observes the generations this fetch's own final frames
	// piggyback, to stamp the cached fragment. Distinct values across
	// frames mean a mutation landed between bind batches: the fragment is
	// not a point snapshot and must not be cached.
	fragGen, fragGenSeen, fragGenStable := uint64(0), false, true
	tap := func(preds []string, gens []uint64) {
		for i, p := range preds {
			if p != a.Pred || i >= len(gens) {
				continue
			}
			if !fragGenSeen {
				fragGen, fragGenSeen = gens[i], true
			} else if gens[i] != fragGen {
				fragGenStable = false
			}
		}
	}

	var remote lang.CQ
	if useBind {
		as.Set("src", "bind")
	} else {
		as.Set("src", "fetch")
		remote = selectionQuery(a)
	}
	err := e.withClient(addr, func(c *Client) error {
		c.tapMeta = tap
		defer func() { c.tapMeta = nil }()
		if as != nil {
			c.traceSpan = as
			defer func() { c.traceSpan = nil }()
		}
		if useBind {
			return c.BindEvalStream(a, sh.keyPoss, keyRows, e.bindPipeline, process)
		}
		return c.EvalStream(remote, process)
	})
	as.SetInt("fetched", int64(len(seenRemote)))
	if err != nil {
		return err
	}
	if !fragTooBig && fragGenSeen && fragGenStable {
		e.frags.put(fragKey, fragGen, fragRows, fragBytes)
	}
	return nil
}

// addrOf returns the routed address for pred ("" when unrouted; EvalCQ
// validated routes up front).
func (e *Executor) addrOf(pred string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addr[pred]
}

// fragLookup returns the cached fragment under key, but only after a gens
// round trip confirms its stamped generation is still pred's current
// generation at addr. A generation mismatch drops the entry (counted as an
// invalidation); a failed revalidation just misses — the subsequent fetch
// will surface any real transport problem.
func (e *Executor) fragLookup(addr, pred, key string) ([]rel.Tuple, bool) {
	rows, gen, ok := e.frags.lookup(key)
	if !ok {
		e.frags.missed()
		return nil, false
	}
	e.frags.revalidated()
	var cur uint64
	err := e.withClient(addr, func(c *Client) error {
		m, err := c.Gens([]string{pred})
		cur = m[pred]
		return err
	})
	if err != nil || cur != gen {
		if err == nil {
			e.frags.invalidate(key)
		}
		e.frags.missed()
		return nil, false
	}
	e.frags.confirmHit(key)
	return rows, true
}

// evalComp evaluates comparison c over one partial-join row.
func evalComp(c lang.Comparison, varCol map[string]int, row rel.Tuple) bool {
	resolve := func(t lang.Term) lang.Term {
		if t.IsConst() {
			return t
		}
		return lang.Const(row[varCol[t.Name]])
	}
	return c.Op.EvalConst(resolve(c.L), resolve(c.R))
}

// selectionQuery builds the remote fetch query for atom a: head = one
// fresh variable (or the constant itself) per position, constants kept in
// the body for push-down, so the peer returns full rows of the selection.
func selectionQuery(a lang.Atom) lang.CQ {
	args := make([]lang.Term, len(a.Args))
	head := make([]lang.Term, len(a.Args))
	for i, t := range a.Args {
		if t.IsConst() {
			args[i] = t
			head[i] = t
		} else {
			v := lang.Var(fmt.Sprintf("c%d", i))
			args[i] = v
			head[i] = v
		}
	}
	return lang.CQ{
		Head: lang.Atom{Pred: "fetch", Args: head},
		Body: []lang.Atom{{Pred: a.Pred, Args: args}},
	}
}

// planOrder orders q's body atoms with the engine planner's greedy
// selectivity heuristic (engine.OrderBodyStats), feeding it the serving
// peers' cardinalities and per-column distinct estimates (advertised at
// Discover time, refreshed from the piggyback on every response). Relations
// without a distinct advertisement — a peer predating the Distinct
// extension — get ColStats with a nil Distinct, which OrderBodyStats treats
// with the uniform per-bound-position discount: exactly the old
// cardinality-only ordering.
func (e *Executor) planOrder(q lang.CQ) []int {
	stats := make(map[string]engine.ColStats, len(q.Body))
	e.mu.Lock()
	for _, a := range q.Body {
		stats[a.Pred] = engine.ColStats{Card: e.card[a.Pred], Distinct: e.dist[a.Pred]}
	}
	e.mu.Unlock()
	return engine.OrderBodyStats(q.Body, func(pred string) engine.ColStats { return stats[pred] }, -1)
}
