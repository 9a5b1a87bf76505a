package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/rel"
	"repro/internal/swarm"
)

// Capacities of the program's own caches that the workloads are sized
// against. They mirror pdms' reformulation LRU (reformCacheSize) and the
// executor's default fragment-cache limits (defaultFragEntries,
// defaultFragBytes); the provenance line prints them next to each
// workload's sizes.
const (
	reformLRUEntries  = 256
	fragCacheEntries  = 512
	fragCacheBytes    = 64 << 20
	defaultSetupTimes = 3
)

// workload is one benchmark input family. The mapping graph and the store
// placement come from a fixed topology seed, so every run of a workload
// reformulates over the same network; the run's --seed draws the stored
// facts, the distinct query set and the op sequence.
type workload struct {
	name string
	// params generates the network; params.Seed is the fixed topology seed.
	params swarm.Params
	// queries returns the distinct query texts for one seed, in groups
	// that the op sequence visits in shuffled rounds (see opGen.take).
	queries func(spec *swarm.Spec, rng *rand.Rand) [][]string
	// addEvery > 0 makes about one op in addEvery an Add of a fresh tuple
	// to a random storing peer; 0 keeps the workload read-only.
	addEvery int
	// journal serves each storing peer from an internal/store journal
	// replayed at set-up.
	journal bool
	// warmReform reformulates every distinct query during set-up, so the
	// timed phase finds the reformulation LRU full.
	warmReform bool
	// warmOps is the number of read ops run during set-up (caches, server
	// indexes, connection pools).
	warmOps int
}

func workloads() []*workload {
	join := swarm.Params{Peers: 16, Topology: swarm.Chain, FactsPerStore: 2000, DomainSize: 400, Seed: 5}
	return []*workload{
		{
			name:    "reform-deep",
			params:  swarm.Params{Peers: 64, Topology: swarm.SmallWorld, Seed: 1},
			queries: everyPeerAndConstant,
			warmOps: reformLRUEntries,
		},
		{
			name:       "join-scan",
			params:     join,
			queries:    joinQueries(32),
			warmReform: true,
			warmOps:    8,
		},
		{
			name:       "join-write",
			params:     join,
			queries:    joinQueries(2),
			addEvery:   4,
			journal:    true,
			warmReform: true,
			warmOps:    8,
		},
	}
}

// shrink returns a tiny copy of w for the self-tests: a few peers and, on
// the join workloads, a few dozen facts per store.
func (w *workload) shrink() *workload {
	c := *w
	c.params.Peers = 6
	if c.params.FactsPerStore > 40 {
		c.params.FactsPerStore, c.params.DomainSize = 40, 20
	}
	c.warmOps = min(c.warmOps, 4)
	return &c
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// everyPeerAndConstant poses q(y) :- P<k>:R("v<c>", y) at every peer k for
// every constant c of the domain, one group per peer.
func everyPeerAndConstant(spec *swarm.Spec, _ *rand.Rand) [][]string {
	groups := make([][]string, spec.Params.Peers)
	for k := range groups {
		for c := 0; c < spec.Params.DomainSize; c++ {
			groups[k] = append(groups[k], fmt.Sprintf(`q(y) :- %s("v%d", y)`, swarm.PeerRel(k), c))
		}
	}
	return groups
}

// joinQueries poses q(y, z) :- P0:R("v<c>", y), P0:R(y, z) for n constants
// drawn from the domain, in one group.
func joinQueries(n int) func(*swarm.Spec, *rand.Rand) [][]string {
	return func(spec *swarm.Spec, rng *rand.Rand) [][]string {
		cs := rng.Perm(spec.Params.DomainSize)[:min(n, spec.Params.DomainSize)]
		sort.Ints(cs)
		qs := make([]string, len(cs))
		for i, c := range cs {
			qs[i] = fmt.Sprintf(`q(y, z) :- %s("v%d", y), %s(y, z)`, swarm.PeerRel(0), c, swarm.PeerRel(0))
		}
		return [][]string{qs}
	}
}

// input is everything a run derives from (workload, seed): the network
// with its facts and the distinct query set.
type input struct {
	w       *workload
	seed    int64
	spec    *swarm.Spec
	queries []string
	groups  [][]int // indexes into queries, as the workload grouped them
	stores  []int   // indexes of the storing peers
}

// newInput generates the workload's network from its topology seed and
// replaces the generated facts with facts drawn from seed. Within a store,
// first components walk the domain from a random offset, so every constant
// has the same out-degree (FactsPerStore / DomainSize) in every store that
// holds it, and the work per query does not hinge on which constants the
// seed picks.
func newInput(w *workload, seed int64) (*input, error) {
	spec, err := swarm.Generate(w.params)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := spec.Params
	if p.FactsPerStore > p.DomainSize*p.DomainSize {
		return nil, fmt.Errorf("workload %s: %d facts per store do not fit a %d-constant domain", w.name, p.FactsPerStore, p.DomainSize)
	}
	in := &input{w: w, seed: seed, spec: spec}
	for i, stored := range spec.Stored {
		if !stored {
			continue
		}
		in.stores = append(in.stores, i)
		off := rng.Intn(p.DomainSize)
		seen := map[[2]int]bool{}
		facts := make([]rel.Tuple, 0, p.FactsPerStore)
		for f := 0; f < p.FactsPerStore; f++ {
			a := (off + f) % p.DomainSize
			b := rng.Intn(p.DomainSize)
			for seen[[2]int{a, b}] {
				b = rng.Intn(p.DomainSize)
			}
			seen[[2]int{a, b}] = true
			facts = append(facts, rel.Tuple{fmt.Sprintf("v%d", a), fmt.Sprintf("v%d", b)})
		}
		spec.Facts[i] = facts
	}
	for _, g := range w.queries(spec, rng) {
		var idx []int
		for _, q := range g {
			idx = append(idx, len(in.queries))
			in.queries = append(in.queries, q)
		}
		in.groups = append(in.groups, idx)
	}
	return in, nil
}

// op is one benchmark operation: a query (by index into the distinct
// query set) or, when query < 0, an Add of tuple to peer's stored relation.
type op struct {
	seq   int
	query int
	peer  int
	tuple rel.Tuple
}

func (o op) isAdd() bool { return o.query < 0 }

// opGen hands out one deterministic op sequence to any number of clients:
// op i depends only on the seed and ops 0..i-1, whichever client takes it.
type opGen struct {
	mu       sync.Mutex
	in       *input
	rng      *rand.Rand // guarded by mu
	addEvery int
	next     int                  // guarded by mu
	bag      []int                // guarded by mu; groups left in this round
	present  []map[[2]string]bool // guarded by mu; per peer: base facts plus issued adds
}

// newOpGen returns the op sequence for stream of in's seed. Streams keep
// the warm-up sequence (read-only) apart from the timed one.
func newOpGen(in *input, stream int64, addEvery int) *opGen {
	g := &opGen{
		in:       in,
		rng:      rand.New(rand.NewSource(in.seed*1000003 + stream)),
		addEvery: addEvery,
	}
	if addEvery > 0 {
		g.present = make([]map[[2]string]bool, len(in.spec.Facts))
		for _, i := range in.stores {
			g.present[i] = map[[2]string]bool{}
			for _, t := range in.spec.Facts[i] {
				g.present[i][[2]string{t[0], t[1]}] = true
			}
		}
	}
	return g
}

func (g *opGen) take() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := op{seq: g.next}
	g.next++
	if g.addEvery > 0 && g.rng.Intn(g.addEvery) == 0 {
		p := g.in.spec.Params
		o.query = -1
		o.peer = g.in.stores[g.rng.Intn(len(g.in.stores))]
		for {
			k := [2]string{fmt.Sprintf("v%d", g.rng.Intn(p.DomainSize)), fmt.Sprintf("v%d", g.rng.Intn(p.DomainSize))}
			if !g.present[o.peer][k] {
				g.present[o.peer][k] = true
				o.tuple = rel.Tuple{k[0], k[1]}
				return o
			}
		}
	}
	// Every group once per round, in shuffled order, then a uniform pick
	// inside it. On reform-deep that visits every peer once per 64 ops, so
	// the mix of cheap deep-peer queries and costly near-entry ones does not
	// hinge on the draw, while a query still repeats within the LRU's reach
	// about as often as under uniform sampling.
	if len(g.bag) == 0 {
		g.bag = g.rng.Perm(len(g.in.groups))
	}
	grp := g.in.groups[g.bag[0]]
	g.bag = g.bag[1:]
	o.query = grp[g.rng.Intn(len(grp))]
	return o
}
