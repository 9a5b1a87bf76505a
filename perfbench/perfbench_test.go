package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rel"
	"repro/internal/swarm"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests check runs
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs a shrunk workload for a fraction of a second and returns
// the decoded last line of its report.
func tinyRun(t *testing.T, workload string, trace bool, corrupt func(op, []rel.Tuple) []rel.Tuple) map[string]json.RawMessage {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: 0.4, trace: trace,
		clients: 2, setups: 1, out: t.TempDir(), tiny: true, corrupt: corrupt,
	}
	res, err := runBench(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	var out bytes.Buffer
	if err := report(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	return last
}

// TestTinyRunsEmitEveryMetric runs every workload untraced and traced at
// tiny size: each run must report exactly the metrics BENCHMARK.json
// names, with their units, and no failed op.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark defines %v", listed, names)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			last := tinyRun(t, w, trace, nil)
			keys := make([]string, 0, len(last))
			for k := range last {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
				t.Fatalf("%s: result keys %v, want %v", w, keys, want)
			}
			var correct bool
			var attempted, failed int
			var metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}
			for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
				if err := json.Unmarshal(last[k], dst); err != nil {
					t.Fatalf("%s: %s: %v", w, k, err)
				}
			}
			if !correct || failed != 0 || attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, correct, attempted, failed)
			}
			want := map[string]string{}
			for _, m := range b.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range b.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for k, m := range metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", w, trace, got, want)
			}
			if !trace {
				for k, m := range metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, k, m.Value)
					}
				}
			}
		}
	}
}

// TestSameSeedSameOps checks that a seed fixes the facts, the query set and
// the op sequence, and that another seed changes them.
func TestSameSeedSameOps(t *testing.T) {
	w, err := workloadByName("join-write")
	if err != nil {
		t.Fatal(err)
	}
	seq := func(seed int64) (*input, []op) {
		in, err := newInput(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		g := newOpGen(in, streamTimed, w.addEvery)
		ops := make([]op, 500)
		for i := range ops {
			ops[i] = g.take()
		}
		return in, ops
	}
	a, opsA := seq(3)
	b, opsB := seq(3)
	c, opsC := seq(4)
	if !reflect.DeepEqual(a.spec.Facts, b.spec.Facts) || !slices.Equal(a.queries, b.queries) || !reflect.DeepEqual(opsA, opsB) {
		t.Fatal("the same seed gave different inputs or op sequences")
	}
	if reflect.DeepEqual(a.spec.Facts, c.spec.Facts) || reflect.DeepEqual(opsA, opsC) {
		t.Fatal("different seeds gave the same inputs or op sequences")
	}
	adds := 0
	for _, o := range opsA {
		if o.isAdd() {
			adds++
		}
	}
	if adds < 500/w.addEvery/2 || adds > 500/w.addEvery*2 {
		t.Fatalf("%d adds in 500 ops, want about %d", adds, 500/w.addEvery)
	}
}

// TestCorruptedAnswerIsAFailure feeds the checker one wrong answer per
// workload — an extra tuple no peer stores — and expects the run to count
// it and report itself incorrect.
func TestCorruptedAnswerIsAFailure(t *testing.T) {
	for _, w := range []string{"join-scan", "join-write"} {
		var done atomic.Bool
		corrupt := func(o op, rows []rel.Tuple) []rel.Tuple {
			if o.seq < 0 || !done.CompareAndSwap(false, true) {
				return rows
			}
			return append(slices.Clone(rows), rel.Tuple{"bogus", "tuple"})
		}
		last := tinyRun(t, w, false, corrupt)
		var correct bool
		var failed int
		if err := json.Unmarshal(last["correct"], &correct); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(last["failed"], &failed); err != nil {
			t.Fatal(err)
		}
		if correct || failed != 1 {
			t.Fatalf("%s: corrupted answer gave correct=%v failed=%d, want false and 1", w, correct, failed)
		}
	}
}

// TestEnvelope checks the write-workload checker on hand-made logs: an
// answer missing an acknowledged Add, or holding one issued after it
// returned, is outside its envelope.
func TestEnvelope(t *testing.T) {
	w, err := workloadByName("join-write")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInput(w.shrink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two Adds to one store that join with the query's constant c:
	// (c, fresh) makes "fresh" a y, and (fresh, c) closes the join.
	s := in.stores[0]
	c := strings.Split(in.queries[0], `"`)[1]
	log := []addRec{{peer: s, tuple: rel.Tuple{c, "fresh"}}, {peer: s, tuple: rel.Tuple{"fresh", c}}}
	orc, err := loadOracle(in.spec)
	if err != nil {
		t.Fatal(err)
	}
	before, err := oracleAnswer(orc, in.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range log {
		if err := orc.AddFact(swarm.PeerStored(a.peer), a.tuple...); err != nil {
			t.Fatal(err)
		}
	}
	after, err := oracleAnswer(orc, in.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) || !subset(before, after) {
		t.Fatalf("the adds should only add answers: %d -> %d", len(before), len(after))
	}
	dup := append(slices.Clone(after), after[0])
	slices.Sort(dup)
	recs := []queryRec{
		{query: 0, acked: 0, issued: 0, fp: before}, // nothing issued yet
		{query: 0, acked: 0, issued: 2, fp: after},  // Adds in flight: either answer
		{query: 0, acked: 0, issued: 2, fp: before},
		{query: 0, acked: 2, issued: 2, fp: before}, // acknowledged Adds missing
		{query: 0, acked: 0, issued: 0, fp: after},  // shows Adds not yet issued
		{query: 0, acked: 0, issued: 2, fp: dup},    // a tuple twice
	}
	ok, final, err := checkEnvelope(in.spec, in.queries, log, log, recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, true, false, false, false}; !slices.Equal(ok, want) {
		t.Fatalf("verdicts %v, want %v", ok, want)
	}
	if !slices.Equal(final[0], after) {
		t.Fatal("final oracle answer does not include every acknowledged add")
	}
}
