package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"repro/internal/rel"
	"repro/internal/swarm"
	"repro/pdms"
)

// fingerprint returns the sorted 64-bit FNV-1a digests of the answer
// tuples (values length-prefixed, so no two distinct tuples share an
// encoding). Answers are compared as digest sets: a collision among a few
// thousand tuples has probability about 2^-40, and keeping digests instead
// of tuples keeps the recorded answers of a run small.
func fingerprint(rows []rel.Tuple) []uint64 {
	fp := make([]uint64, len(rows))
	h := fnv.New64a()
	var lenBuf [8]byte
	for i, t := range rows {
		h.Reset()
		for _, v := range t {
			n := len(v)
			for b := range lenBuf {
				lenBuf[b] = byte(n >> (8 * b))
			}
			h.Write(lenBuf[:])
			h.Write([]byte(v))
		}
		fp[i] = h.Sum64()
	}
	slices.Sort(fp)
	return fp
}

// isSet reports whether the sorted digests hold no duplicate: a query
// answer is a set, so a repeated tuple is a wrong answer.
func isSet(fp []uint64) bool {
	for i := 1; i < len(fp); i++ {
		if fp[i] == fp[i-1] {
			return false
		}
	}
	return true
}

// subset reports whether sorted a is contained in sorted b.
func subset(a, b []uint64) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// loadOracle builds the single-process oracle for spec: the mediator
// specification with every peer's facts inlined into one local network.
func loadOracle(spec *swarm.Spec) (*pdms.Network, error) {
	net, err := pdms.Load(spec.OracleSource())
	if err != nil {
		return nil, fmt.Errorf("loading oracle: %w", err)
	}
	return net, nil
}

func oracleAnswer(net *pdms.Network, q string) ([]uint64, error) {
	rows, err := net.Query(q)
	if err != nil {
		return nil, fmt.Errorf("oracle query %q: %w", q, err)
	}
	return fingerprint(rows), nil
}

// oracleAnswers evaluates every query on the oracle with workers
// concurrent callers and returns the digests in query order.
func oracleAnswers(net *pdms.Network, queries []string, workers int) ([][]uint64, error) {
	out := make([][]uint64, len(queries))
	err := forEach(len(queries), workers, func(i int) (err error) {
		out[i], err = oracleAnswer(net, queries[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEach calls fn(0), ..., fn(n-1) from workers goroutines and returns
// their errors joined.
func forEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// addRec is one Add as issued by a client.
type addRec struct {
	peer  int
	tuple rel.Tuple
}

// queryRec is one answered query of a workload with writes: acked is how
// many Adds had been acknowledged (a prefix of the ack log) when the query
// was sent, issued how many had been issued (a prefix of the issue log)
// when it returned.
type queryRec struct {
	query         int
	acked, issued int
	fp            []uint64
}

// checkEnvelope checks every record against the monotone envelope
//
//	oracle(base + ackLog[:acked]) ⊆ answer ⊆ oracle(base + issueLog[:issued])
//
// — every Add acknowledged before the query started must be visible, and
// nothing issued after it returned may be. It returns one verdict per
// record, and the oracle's answers (digests, in query order) over base
// plus every acknowledged Add, against which a quiescent pass must match
// exactly. The two bounds are computed on two oracles, each walked once
// along its log.
func checkEnvelope(spec *swarm.Spec, queries []string, ackLog, issueLog []addRec, recs []queryRec) (ok []bool, final [][]uint64, err error) {
	lowOK := make([]bool, len(recs))
	highOK := make([]bool, len(recs))
	var lowErr, highErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var net *pdms.Network
		net, lowErr = walkLog(spec, queries, ackLog, recs, func(r queryRec) int { return r.acked },
			func(i int, bound []uint64) { lowOK[i] = subset(bound, recs[i].fp) })
		if lowErr == nil {
			final, lowErr = oracleAnswers(net, queries, 1)
		}
	}()
	go func() {
		defer wg.Done()
		_, highErr = walkLog(spec, queries, issueLog, recs, func(r queryRec) int { return r.issued },
			func(i int, bound []uint64) { highOK[i] = subset(recs[i].fp, bound) })
	}()
	wg.Wait()
	if lowErr != nil {
		return nil, nil, lowErr
	}
	if highErr != nil {
		return nil, nil, highErr
	}
	ok = make([]bool, len(recs))
	for i := range recs {
		ok[i] = lowOK[i] && highOK[i] && isSet(recs[i].fp)
	}
	return ok, final, nil
}

// walkLog loads an oracle, applies log in order, and at each prefix
// length some record names evaluates that record's query (once per query
// and prefix) and hands the digests to visit. It returns the oracle with
// the whole log applied.
func walkLog(spec *swarm.Spec, queries []string, log []addRec, recs []queryRec, prefix func(queryRec) int, visit func(i int, bound []uint64)) (*pdms.Network, error) {
	net, err := loadOracle(spec)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return prefix(recs[a]) - prefix(recs[b]) })
	applied := 0
	apply := func(upTo int) error {
		for ; applied < upTo; applied++ {
			a := log[applied]
			if err := net.AddFact(swarm.PeerStored(a.peer), a.tuple...); err != nil {
				return fmt.Errorf("oracle add: %w", err)
			}
		}
		return nil
	}
	memo := map[int][]uint64{}
	for _, i := range order {
		if p := prefix(recs[i]); p > applied {
			if err := apply(p); err != nil {
				return nil, err
			}
			clear(memo)
		}
		q := recs[i].query
		bound, seen := memo[q]
		if !seen {
			if bound, err = oracleAnswer(net, queries[q]); err != nil {
				return nil, err
			}
			memo[q] = bound
		}
		visit(i, bound)
	}
	if err := apply(len(log)); err != nil {
		return nil, err
	}
	return net, nil
}
