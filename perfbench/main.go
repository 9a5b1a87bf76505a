// Command perfbench is the repository's benchmark: it boots a network of
// in-process loopback peers from a seeded swarm specification, drives
// queries (and, on join-write, Adds) through the real pipeline —
// pdms.Network.QueryVia parses, reformulates in internal/core and executes
// on netpeer.Executor — from a closed loop of clients, checks every answer
// against a single-process oracle, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds it
// first; README.md in this directory describes the workloads, the metrics
// and what each layer's metrics are expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/rel"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation. The closed loop runs one client per two CPUs:
// the peers' servers and the executor's fan-out share the process and need
// the rest. On a 2-vCPU VM, one client per CPU oversubscribed the CPUs: the
// spread of join-scan's query_p50_ms over ten seeds was about 25%, against
// about 6% with one client. setup_s is the median of defaultSetupTimes
// set-ups (a traced run sets up once).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	setups   int
	out      string // directory for spans and scratch journals
	// tiny shrinks the workload (self-tests).
	tiny bool
	// corrupt rewrites answers before they are checked (self-tests).
	corrupt func(op, []rel.Tuple) []rel.Tuple
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	info              []string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{clients: max(1, runtime.NumCPU()/2), setups: defaultSetupTimes, out: ".bench_out"}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: reform-deep, join-scan or join-write")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the stored facts, the query set and the op sequence")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (split evenly between the untraced and the traced phase with --trace 1)")
	fs.IntVar(&trace, "trace", 0, "0: report end-to-end metrics; 1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := runBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintln(stderr, "perfbench: answers did not match the oracle or ops failed")
		return 1
	}
	return 0
}

// Op-sequence streams of one seed.
const (
	streamWarm  = 1
	streamTimed = 2
)

// traceRounds is how many untraced/traced slice pairs a --trace 1 run
// alternates.
const traceRounds = 2

// runBench sets the workload up, runs it and checks it. Progress and
// provenance lines go to log as they happen.
func runBench(cfg config, log io.Writer) (res *result, err error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.tiny {
		w = w.shrink()
	}
	in, err := newInput(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "provenance %s\n", mustJSON(provenance(cfg)))
	fmt.Fprintf(log, "sizes %s\n", mustJSON(sizes(in)))

	work := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	defer func() { err = errors.Join(err, os.RemoveAll(work)) }()
	journalRoot := ""
	if w.journal {
		journalRoot = filepath.Join(work, "journal")
		if err := writeJournals(in, journalRoot); err != nil {
			return nil, fmt.Errorf("journaling facts: %w", err)
		}
	}
	var tr *tracer
	setups := cfg.setups
	if cfg.trace {
		tr, setups = newTracer(), 1
	}

	// Set-up: generate, boot, discover, replay, warm up — timed whole,
	// several times; the last system is kept for the measured phase.
	var sys *system
	var setupTimes []time.Duration
	for i := 0; i < setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		root := tr.root("setup")
		if sys, err = setUp(w, cfg, journalRoot, tr, root); err != nil {
			return nil, err
		}
		tr.end(root)
		setupTimes = append(setupTimes, time.Since(t0))
	}
	defer func() { err = errors.Join(err, sys.close()) }()

	r := &runner{sys: sys, clients: cfg.clients, corrupt: cfg.corrupt}
	if w.addEvery == 0 {
		orc, err := loadOracle(sys.in.spec)
		if err != nil {
			return nil, err
		}
		if r.want, err = oracleAnswers(orc, sys.in.queries, runtime.NumCPU()); err != nil {
			return nil, err
		}
	}

	// Measured phases: one untraced phase, or with --trace 1 untraced and
	// traced slices alternating, so drift over the run does not bias the
	// tracing overhead.
	dur := time.Duration(cfg.seconds * float64(time.Second))
	gen := newOpGen(sys.in, streamTimed, w.addEvery)
	p, tp := &phase{}, &phase{}
	var layers [3]snap // client, servers, stores: deltas over untraced time
	var alloc uint64
	rounds, slice := 1, dur
	if cfg.trace {
		rounds, slice = traceRounds, dur/(2*traceRounds)
	}
	for i := 0; i < rounds; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		c0, s0, st0 := sys.snapshot()
		runtime.ReadMemStats(&m0)
		pu := r.run(gen, slice, 0, nil)
		runtime.ReadMemStats(&m1)
		c1, s1, st1 := sys.snapshot()
		p.merge(pu)
		p.elapsed += pu.elapsed
		alloc += m1.TotalAlloc - m0.TotalAlloc
		for j, d := range []snap{c1.since(c0), s1.since(s0), st1.since(st0)} {
			layers[j] = layers[j].plus(d)
		}
		if cfg.trace {
			tp.merge(r.run(gen, slice, 0, tr))
		}
	}

	res = &result{attempted: p.attempted + tp.attempted, failed: p.failed + tp.failed}
	errs := append(p.errs, tp.errs...)
	if w.addEvery > 0 {
		bad, attempted, err := r.checkWrites(append(p.recs, tp.recs...))
		if err != nil {
			return nil, err
		}
		res.attempted += attempted
		res.failed += len(bad)
		errs = append(errs, bad...)
	}
	res.correct = res.failed == 0
	if p.queries() == 0 || (cfg.trace && tp.queries() == 0) {
		return nil, fmt.Errorf("no query completed in %v (errors: %v)", dur, errors.Join(errs...))
	}

	if cfg.trace {
		res.metrics = perLayer(p, tp, layers[0], layers[1], layers[2], tr)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.info = append(res.info, "spans "+path)
		res.info = append(res.info, shares(tr)...)
	} else {
		res.metrics = endToEnd(p, alloc, setupTimes)
	}
	if len(p.addLat)+len(tp.addLat) > 0 {
		adds := append(p.addLat, tp.addLat...)
		res.info = append(res.info,
			fmt.Sprintf("add_p50_ms %.6f ms samples=%d", ms(percentile(adds, 0.5)), len(adds)),
			fmt.Sprintf("add_p95_ms %.6f ms samples=%d beyond=%d", ms(percentile(adds, 0.95)), len(adds), beyond(adds, 0.95)))
	}
	res.info = append(res.info, fmt.Sprintf("ops_failed_ratio %g ratio failed=%d attempted=%d", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted))
	for _, e := range errs[:min(len(errs), 10)] {
		res.info = append(res.info, "failure "+e.Error())
	}
	return res, nil
}

// setUp generates the network, boots it (replaying journals), and warms it
// up: reformulations into the LRU where the workload asks for it, then
// read ops from the warm-up stream.
func setUp(w *workload, cfg config, journalRoot string, tr *tracer, root *span) (*system, error) {
	in, err := newInput(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	sys, err := boot(in, journalRoot, tr, root)
	if err != nil {
		return nil, err
	}
	r := &runner{sys: sys, clients: cfg.clients}
	if w.warmReform {
		if err := r.reformulateAll(cfg.clients); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up reformulation: %w", err), sys.close())
		}
	}
	p := r.run(newOpGen(in, streamWarm, 0), 0, w.warmOps, nil)
	if p.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up: %d of %d ops failed: %w", p.failed, p.attempted, errors.Join(p.errs...)), sys.close())
	}
	return sys, nil
}

// checkWrites checks a workload with writes once the load has stopped:
// every recorded answer against its envelope, then a quiescent pass of
// every distinct query against the oracle over all acknowledged Adds. It
// returns the failures and the number of quiescent queries attempted.
func (r *runner) checkWrites(recs []queryRec) (bad []error, attempted int, err error) {
	in := r.sys.in
	quiescent := make([][]uint64, len(in.queries))
	for i, q := range in.queries {
		rows, err := r.sys.med.QueryVia(q, r.sys.exec)
		if err != nil {
			bad = append(bad, fmt.Errorf("quiescent query %q: %w", q, err))
			continue
		}
		if r.corrupt != nil {
			rows = r.corrupt(op{seq: -1, query: i}, rows)
		}
		quiescent[i] = fingerprint(rows)
	}
	issued, acked := r.logs()
	ok, final, err := checkEnvelope(in.spec, in.queries, acked, issued, recs)
	if err != nil {
		return nil, 0, err
	}
	for i, good := range ok {
		if !good {
			bad = append(bad, fmt.Errorf("query %q: answer (%d tuples) outside its envelope (acked adds %d, issued adds %d)",
				in.queries[recs[i].query], len(recs[i].fp), recs[i].acked, recs[i].issued))
		}
	}
	for i, q := range in.queries {
		if quiescent[i] != nil && !slices.Equal(quiescent[i], final[i]) {
			bad = append(bad, fmt.Errorf("quiescent query %q: %d answers, oracle has %d", q, len(quiescent[i]), len(final[i])))
		}
	}
	return bad, len(in.queries), nil
}

// report prints the info lines, one line per metric, and the result
// object as the last line.
func report(out io.Writer, res *result) error {
	for _, l := range res.info {
		fmt.Fprintln(out, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "metric %s %.6f %s %s\n", m.name, m.value, m.unit, m.note)
		metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(blob))
	return err
}

func mustJSON(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(blob)
}
