package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// TestStreamScan: yields exactly the relation's tuples in insertion order,
// honors ErrStop, and treats absent relations as empty.
func TestStreamScan(t *testing.T) {
	ins := rel.NewInstance()
	var want []rel.Tuple
	for i := 0; i < 100; i++ {
		// Descending keys: insertion order differs from sorted order.
		tu := rel.Tuple{fmt.Sprintf("k%03d", 99-i), "v"}
		ins.MustAdd("R", tu...)
		want = append(want, tu)
	}
	e := New(ins)
	var got []rel.Tuple
	if err := e.StreamScan("R", func(t rel.Tuple) error {
		got = append(got, t)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StreamScan yielded %v, want insertion order %v", got, want)
	}
	n := 0
	if err := e.StreamScan("R", func(rel.Tuple) error { n++; return ErrStop }); err != nil || n != 1 {
		t.Fatalf("ErrStop: n=%d err=%v", n, err)
	}
	if err := e.StreamScan("absent", func(rel.Tuple) error { t.Fatal("yield on absent"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestScanDuringInsertEnvelope runs scans while a writer inserts
// concurrently (run with -race): every answer must respect the monotone
// envelope eval(inserted-before-start) ⊆ answer ⊆ eval(inserted-by-end) —
// relations are append-only, so a scan can never lose a pre-existing tuple
// or invent one.
func TestScanDuringInsertEnvelope(t *testing.T) {
	ins := rel.NewInstance()
	base := map[string]bool{}
	for i := 0; i < 500; i++ {
		tu := rel.Tuple{fmt.Sprintf("base%d", i), "v"}
		ins.MustAdd("R", tu...)
		base[tu.Key()] = true
	}
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("y"))},
	}
	r := ins.Relation("R")

	var mu sync.Mutex
	var ledger []rel.Tuple // writer's inserts, in publish order
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			tu := rel.Tuple{fmt.Sprintf("live%d", i), "v"}
			if _, err := r.Insert(tu); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ledger = append(ledger, tu)
			mu.Unlock()
		}
	}()

	for iter := 0; iter < 40; iter++ {
		mu.Lock()
		n0 := len(ledger)
		mu.Unlock()
		rows, err := e.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n1 := len(ledger)
		upper := map[string]bool{}
		for k := range base {
			upper[k] = true
		}
		for _, tu := range ledger[:n1] {
			upper[tu.Key()] = true
		}
		lower := map[string]bool{}
		for k := range base {
			lower[k] = true
		}
		for _, tu := range ledger[:n0] {
			lower[tu.Key()] = true
		}
		mu.Unlock()
		got := map[string]bool{}
		for _, tu := range rows {
			if !upper[tu.Key()] {
				t.Fatalf("iter %d: phantom answer %v", iter, tu)
			}
			got[tu.Key()] = true
		}
		for k := range lower {
			if !got[k] {
				t.Fatalf("iter %d: lost tuple %q inserted before the scan started", iter, k)
			}
		}
	}
	<-done
	// Quiesced: exact equality.
	rows, err := e.EvalCQ(q)
	if err != nil || len(rows) != 900 {
		t.Fatalf("quiesced rows = %d (%v), want 900", len(rows), err)
	}
}
