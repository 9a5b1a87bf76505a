package pdms_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/swarm"
	"repro/pdms"
)

// specGenBase and specGenSteps drive TestSharedReformulatorUnderExtend.
// The second step merges a mapping and a storage description, then fails
// on its fact: Z.z exists in the instance with arity 1 (see
// loadSpecGenNetwork) but not in the spec, so the declarations pass and the
// data merge is the first thing to fail.
const specGenBase = `
storage A.r0(x, y) in A:R(x, y)
storage C.t(x, y) in C:T(x, y)
`

var specGenSteps = []struct {
	src   string
	fails bool
}{
	{`storage A.r1(x, y) in A:R(x, y)`, false},
	{"include B:S(x, y) in A:R(x, y)\nstorage B.s(x, y) in B:S(x, y)\nfact Z.z(\"1\", \"2\")", true},
	{`storage A.r2(x, y) in A:R(x, y)`, false},
}

func loadSpecGenNetwork(t *testing.T) *pdms.Network {
	t.Helper()
	net, err := pdms.Load(specGenBase)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Data().Add("Z.z", rel.Tuple{"1"}); err != nil {
		t.Fatal(err)
	}
	return net
}

// reformRecord is one concurrent reformulation: the query, the range of
// spec generations it may have seen, and what it returned.
type reformRecord struct {
	q      lang.CQ
	lo, hi int
	got    *pdms.Reformulation
}

// TestSharedReformulatorUnderExtend runs reformulations of distinct
// queries (each one misses the reformulation cache), a forced Explain and
// a sequence of Extends — one of which merges a mapping and then fails —
// against one network. Every reformulation must equal a fresh
// core.Reformulator's over the spec of a generation current during the
// call, the Explain trace must hold only its own query's goal nodes, and
// a query after the failed Extend must see the partially applied spec.
// Run it under -race: the Reformulator is shared by every reader.
func TestSharedReformulatorUnderExtend(t *testing.T) {
	// want[g] reformulates over an independent copy of the spec as it is
	// after the first g Extends.
	want := make([]*core.Reformulator, len(specGenSteps)+1)
	for g := range want {
		snap := loadSpecGenNetwork(t)
		for _, st := range specGenSteps[:g] {
			if err := snap.Extend(st.src); (err != nil) != st.fails {
				t.Fatalf("Extend(%q) = %v, want failure %v", st.src, err, st.fails)
			}
		}
		want[g] = core.New(snap.Spec(), core.Options{})
	}

	// afterFail is reformulated right after the failing Extend returns,
	// before the next one starts: at generation failGen exactly.
	afterFail, err := parser.ParseQuery(`q(y) :- A:R("after", y)`)
	if err != nil {
		t.Fatal(err)
	}
	net := loadSpecGenNetwork(t)
	var started, done atomic.Int64 // Extends begun and returned
	// start releases every reader at once, so their first reformulations
	// overlap on the fresh Reformulator.
	start := make(chan struct{})
	var wg sync.WaitGroup
	const workers, perWorker = 4, 40
	records := make([][]reformRecord, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Keep reformulating until every Extend has returned.
			for i := 0; i < perWorker || done.Load() < int64(len(specGenSteps)); i++ {
				q, err := parser.ParseQuery(fmt.Sprintf(`q(y) :- A:R("c%d_%d", y)`, w, i))
				if err != nil {
					t.Error(err)
					return
				}
				lo := int(done.Load())
				got, err := net.ReformulateCQ(q)
				hi := int(started.Load())
				if err != nil {
					t.Error(err)
					return
				}
				records[w] = append(records[w], reformRecord{q, lo, hi, got})
			}
		}(w)
	}
	var trace string
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		text, _, err := net.Explain(`q(y) :- C:T("e", y)`)
		if err != nil {
			t.Error(err)
		}
		trace = text
	}()
	close(start)
	var afterFailGot *pdms.Reformulation
	failGen := 0
	for g, st := range specGenSteps {
		// Space the Extends so readers run at every generation; the
		// checks below hold for any interleaving.
		time.Sleep(time.Millisecond)
		started.Add(1)
		err := net.Extend(st.src)
		done.Add(1)
		if (err != nil) != st.fails {
			t.Errorf("Extend(%q) = %v, want failure %v", st.src, err, st.fails)
		}
		if st.fails {
			failGen = g + 1
			if afterFailGot, err = net.ReformulateCQ(afterFail); err != nil {
				t.Error(err)
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, rs := range records {
		for _, r := range rs {
			ok := false
			for g := r.lo; g <= r.hi && !ok; g++ {
				ok = reflect.DeepEqual(*r.got, reformulation(t, want[g], r.q))
			}
			if !ok {
				t.Fatalf("%s during generations %d..%d returned\n%s\nwhich no spec of those generations yields", r.q, r.lo, r.hi, r.got.Rewriting)
			}
		}
	}

	// The Explain trace holds the goal nodes of its own query only: C:T
	// and the V-predicate of C.t's storage description s1. Every other
	// query's goals are over A:R or V-predicates of other descriptions.
	own := 0
	for _, line := range strings.Split(trace, "\n") {
		pred, ok := strings.CutPrefix(strings.TrimSpace(line), "goal ")
		if !ok {
			continue
		}
		_, pred, _ = strings.Cut(pred, "pred=")
		switch {
		case pred == "C:T":
			own++
		case !strings.HasSuffix(pred, "[s1]"):
			t.Fatalf("Explain trace holds a foreign goal node %q:\n%s", line, trace)
		}
	}
	if own != 1 {
		t.Fatalf("Explain trace holds %d goal nodes over C:T, want 1:\n%s", own, trace)
	}

	// After the failed Extend the mapping and storage it merged are live.
	if !strings.Contains(afterFailGot.Rewriting.String(), "B.s(") {
		t.Fatalf("rewriting after the failed Extend misses its merged storage B.s:\n%s", afterFailGot.Rewriting)
	}
	if w := reformulation(t, want[failGen], afterFail); !reflect.DeepEqual(*afterFailGot, w) {
		t.Fatalf("rewriting after the failed Extend:\n%s\nwant\n%s", afterFailGot.Rewriting, w.Rewriting)
	}
}

// reformulation is r's result for q in the form Network returns it.
func reformulation(t *testing.T, r *core.Reformulator, q lang.CQ) pdms.Reformulation {
	t.Helper()
	out, err := r.Reformulate(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pdms.Reformulation{Rewriting: out.UCQ, Stats: out.Stats, Classification: out.Classification}
}

// BenchmarkReformulateMiss reformulates distinct queries over a 64-peer
// small world — q(y) :- P<k>:R("v<c>", y) for every constant c and peer k,
// 1024 queries visited in turn, four times the 256-entry reformulation
// cache — so every iteration misses the cache and runs internal/core.
// Every run of 64 iterations covers every peer once.
func BenchmarkReformulateMiss(b *testing.B) {
	spec, err := swarm.Generate(swarm.Params{Peers: 64, Topology: swarm.SmallWorld, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	net, err := pdms.Load(spec.Mediator)
	if err != nil {
		b.Fatal(err)
	}
	var queries []lang.CQ
	for c := 0; c < spec.Params.DomainSize; c++ {
		for k := 0; k < spec.Params.Peers; k++ {
			q, err := parser.ParseQuery(fmt.Sprintf(`q(y) :- %s("v%d", y)`, swarm.PeerRel(k), c))
			if err != nil {
				b.Fatal(err)
			}
			queries = append(queries, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.ReformulateCQ(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
