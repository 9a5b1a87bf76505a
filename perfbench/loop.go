package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/netpeer"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/swarm"
)

// runner drives ops against a booted system from a closed loop of
// clients: each client sends its next op only once the previous one has
// returned, as QueryVia callers do.
type runner struct {
	sys     *system
	clients int
	// want holds the oracle's answer digests per distinct query on
	// read-only workloads (each answer is checked as it arrives); nil on
	// workloads with writes, whose answers are recorded and checked
	// against the envelope after the run.
	want [][]uint64
	// corrupt, when set, rewrites answers before they are checked — the
	// self-test of the checker.
	corrupt func(op, []rel.Tuple) []rel.Tuple

	mu       sync.Mutex
	issueLog []addRec // guarded by mu
	ackLog   []addRec // guarded by mu
}

// phase is what one closed-loop run measured.
type phase struct {
	queryLat, addLat []time.Duration
	// attempted counts ops sent; failed those that returned an error or a
	// wrong answer.
	attempted, failed int
	errs              []error // first few errors, for the report
	answers           int     // answer tuples returned by completed queries
	addBytes          int     // value bytes of the acknowledged Adds
	elapsed           time.Duration
	recs              []queryRec
}

func (p *phase) queries() int { return len(p.queryLat) }

func (p *phase) merge(q *phase) {
	p.queryLat = append(p.queryLat, q.queryLat...)
	p.addLat = append(p.addLat, q.addLat...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.answers += q.answers
	p.addBytes += q.addBytes
	p.recs = append(p.recs, q.recs...)
	for _, err := range q.errs {
		p.fail(err)
	}
}

func (p *phase) fail(err error) {
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// run drives ops from gen until dur has passed (dur > 0) or until ops
// 0..maxOps-1 have been taken (maxOps > 0). With tr set, every op is
// broken into the calls QueryVia makes and each call is recorded as a span.
func (r *runner) run(gen *opGen, dur time.Duration, maxOps int, tr *tracer) *phase {
	var deadline time.Time
	start := time.Now()
	if dur > 0 {
		deadline = start.Add(dur)
	}
	total := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := r.client(gen, deadline, maxOps, tr)
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// client is one closed-loop client. It holds its own connections for Adds
// (a netpeer.Client serves one caller at a time).
func (r *runner) client(gen *opGen, deadline time.Time, maxOps int, tr *tracer) *phase {
	p := &phase{}
	conns := map[int]*netpeer.Client{}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return p
		}
		o := gen.take()
		if maxOps > 0 && o.seq >= maxOps {
			return p
		}
		p.attempted++
		if o.isAdd() {
			lat, err := r.add(conns, o, tr)
			if err != nil {
				p.failed++
				p.fail(fmt.Errorf("add %v to peer %d: %w", o.tuple, o.peer, err))
				continue
			}
			p.addLat = append(p.addLat, lat)
			for _, v := range o.tuple {
				p.addBytes += len(v)
			}
			continue
		}
		r.mu.Lock()
		acked := len(r.ackLog)
		r.mu.Unlock()
		rows, lat, err := r.query(o, tr)
		r.mu.Lock()
		issued := len(r.issueLog)
		r.mu.Unlock()
		if err != nil {
			p.failed++
			p.fail(fmt.Errorf("query %q: %w", r.sys.in.queries[o.query], err))
			continue
		}
		p.queryLat = append(p.queryLat, lat)
		p.answers += len(rows)
		if r.corrupt != nil {
			rows = r.corrupt(o, rows)
		}
		fp := fingerprint(rows)
		switch {
		case r.want == nil:
			p.recs = append(p.recs, queryRec{query: o.query, acked: acked, issued: issued, fp: fp})
		case !slices.Equal(fp, r.want[o.query]):
			p.failed++
			p.fail(fmt.Errorf("query %q: %d answers differ from the oracle's %d", r.sys.in.queries[o.query], len(fp), len(r.want[o.query])))
		}
	}
}

// query answers one query: through QueryVia untraced, or, traced, through
// the calls QueryVia makes (parse, reformulate at the mediator, evaluate
// on the executor), each in its own span with counter deltas attached.
func (r *runner) query(o op, tr *tracer) ([]rel.Tuple, time.Duration, error) {
	q := r.sys.in.queries[o.query]
	if tr == nil {
		t0 := time.Now()
		rows, err := r.sys.med.QueryVia(q, r.sys.exec)
		return rows, time.Since(t0), err
	}
	root := tr.root("op.query")
	defer tr.end(root)
	lat := func() time.Duration { return time.Duration(tr.now() - root.Start) }

	sp := tr.child(root, "parser.ParseQuery")
	cq, err := parser.ParseQuery(q)
	tr.end(sp)
	if err != nil {
		return nil, lat(), err
	}

	hits0 := r.sys.medReg.Snapshot().Counters["pdms.reform_cache.hits"]
	sp = tr.child(root, "pdms.Network.ReformulateCQ")
	ref, err := r.sys.med.ReformulateCQ(cq)
	tr.end(sp)
	if err != nil {
		return nil, lat(), err
	}
	sp.set("nodes", int64(ref.Stats.Nodes()))
	sp.set("rewritings", int64(ref.Rewriting.Len()))
	sp.set("reform_cache_hits", int64(r.sys.medReg.Snapshot().Counters["pdms.reform_cache.hits"]-hits0))

	w0, f0 := r.sys.exec.WireStats(), r.sys.exec.FragmentStats()
	sp = tr.child(root, "netpeer.Executor.EvalUCQ")
	rows, err := r.sys.exec.EvalUCQ(ref.Rewriting)
	tr.end(sp)
	w1, f1 := r.sys.exec.WireStats(), r.sys.exec.FragmentStats()
	sp.set("requests", int64(w1.Requests-w0.Requests))
	sp.set("rows_fetched", int64(w1.RowsFetched-w0.RowsFetched))
	sp.set("bytes_recv", int64(w1.BytesRecv-w0.BytesRecv))
	sp.set("fragcache_hits", int64(f1.Hits-f0.Hits))
	sp.set("fragcache_misses", int64(f1.Misses-f0.Misses))
	sp.set("answers", int64(len(rows)))
	return rows, lat(), err
}

// add sends one Add through the client's own connection to the storing
// peer, logging it as issued before it is sent and as acknowledged once
// it has returned.
func (r *runner) add(conns map[int]*netpeer.Client, o op, tr *tracer) (time.Duration, error) {
	c := conns[o.peer]
	if c == nil || c.Broken() {
		if c != nil {
			c.Close()
		}
		var err error
		if c, err = netpeer.Dial(r.sys.addrs[o.peer]); err != nil {
			delete(conns, o.peer)
			return 0, err
		}
		conns[o.peer] = c
	}
	rec := addRec{peer: o.peer, tuple: o.tuple}
	r.mu.Lock()
	r.issueLog = append(r.issueLog, rec)
	r.mu.Unlock()

	root := tr.root("op.add")
	sp := tr.child(root, "netpeer.Client.Add")
	t0 := time.Now()
	_, err := c.Add(swarm.PeerStored(o.peer), [][]string{o.tuple})
	lat := time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if root != nil {
		lat = root.dur()
	}
	if err != nil {
		return lat, err
	}
	r.mu.Lock()
	r.ackLog = append(r.ackLog, rec)
	r.mu.Unlock()
	return lat, nil
}

// reformulateAll reformulates every distinct query at the mediator with
// workers concurrent callers (set-up warm-up of the reformulation LRU).
func (r *runner) reformulateAll(workers int) error {
	queries := r.sys.in.queries
	return forEach(len(queries), workers, func(i int) error {
		_, err := r.sys.med.Reformulate(queries[i])
		return err
	})
}

// logs returns copies of the issue and ack logs.
func (r *runner) logs() (issued, acked []addRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]addRec(nil), r.issueLog...), append([]addRec(nil), r.ackLog...)
}
