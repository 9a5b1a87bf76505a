// Scaleout: Section 5 in miniature, then a million-row store.
//
// Part one generates synthetic PDMS topologies of growing diameter with
// the paper's workload generator, reformulates the benchmark chain query,
// and prints the rule-goal tree sizes and the time to the first/tenth/all
// rewritings — a console rendition of Figures 3 and 4. Run cmd/figures for
// the full TSV sweeps.
//
// Part two builds a relation store (default one million rows), runs a
// filtered scan and a bound-key probe batch over it, and prints the engine
// counters — the end-to-end walkthrough described in README.md. Flags:
// -rows sets the store size, -sweep=false skips part one.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/lang"
	"repro/internal/rel"
	"repro/internal/workload"
)

func main() {
	rows := flag.Int("rows", 1_000_000, "rows in the store walkthrough")
	sweep := flag.Bool("sweep", true, "run the Figure 3/4 reformulation sweep first")
	flag.Parse()

	if *sweep {
		reformulationSweep()
	}
	storeWalkthrough(*rows)
}

func reformulationSweep() {
	fmt.Println("synthetic PDMS sweep (96 peers, 10% definitional mappings)")
	fmt.Println("diam   nodes   rewritings   t(first)     t(10th)      t(all)")
	for d := 1; d <= 6; d++ {
		w, err := workload.Generate(workload.Params{
			Peers:    experiments.DefaultPeers,
			Diameter: d,
			DefRatio: 0.10,
			Seed:     1,
		})
		if err != nil {
			log.Fatal(err)
		}
		r := core.New(w.PDMS, core.Options{})
		start := time.Now()
		var first, tenth time.Duration
		n := 0
		st, err := r.Stream(w.Query, nil, func(lang.CQ) bool {
			n++
			switch n {
			case 1:
				first = time.Since(start)
			case 10:
				tenth = time.Since(start)
			}
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
		all := time.Since(start)
		if n < 10 {
			tenth = all
		}
		fmt.Printf("%4d %7d %12d   %-12v %-12v %-12v\n",
			d, st.Nodes(), n, first.Round(time.Microsecond),
			tenth.Round(time.Microsecond), all.Round(time.Microsecond))
	}

	// End to end on one mid-size topology: generate data, reformulate,
	// execute, and show that answers flow from the bottom-stratum stores.
	fmt.Println("\nend-to-end on a diameter-4 PDMS with data:")
	w, err := workload.Generate(workload.Params{
		Peers:         experiments.DefaultPeers,
		Diameter:      4,
		DefRatio:      0.10,
		FactsPerStore: 6,
		DomainSize:    4, // small domain so chains actually join
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	r := core.New(w.PDMS, core.Options{})
	out, err := r.Reformulate(w.Query, nil)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := engine.New(w.Data).EvalUCQ(out.UCQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", w.Query)
	fmt.Printf("rewritings: %d   stored facts: %d   answers: %d\n",
		out.UCQ.Len(), w.Data.Size(), len(rows))
	for i, t := range rows {
		if i == 5 {
			fmt.Printf("  … and %d more\n", len(rows)-5)
			break
		}
		fmt.Printf("  %s\n", t)
	}
}

// buildStore loads n synthetic order rows into an instance:
// orders(order_id, customer, region) plus a small regions dimension table.
func buildStore(n int) *rel.Instance {
	ins := rel.NewInstance()
	for i := 0; i < n; i++ {
		ins.MustAdd("orders",
			fmt.Sprintf("o%08d", i),
			fmt.Sprintf("cust%d", i%(n/10+1)),
			fmt.Sprintf("region%d", i%64))
	}
	for i := 0; i < 64; i++ {
		ins.MustAdd("regions", fmt.Sprintf("region%d", i), fmt.Sprintf("zone%d", i%4))
	}
	return ins
}

func storeWalkthrough(n int) {
	if n < 100 {
		log.Fatalf("-rows %d: need at least 100 rows for the walkthrough's 1%% cutoff and probe keys", n)
	}
	fmt.Printf("\nstore walkthrough: %d rows\n", n)

	// The filtered scan: the 1% of orders below the id cutoff. A
	// single-atom body keeps the planner from starting at the tiny
	// dimension table, so the full scan of orders is what is measured.
	// (The planner would otherwise scan `regions` first and probe orders,
	// correctly: small relations are cheap openings. Statistics pick plans,
	// not you.)
	cutoff := fmt.Sprintf("o%08d", n/100)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("o"), lang.Var("r")),
		Body: []lang.Atom{
			lang.NewAtom("orders", lang.Var("o"), lang.Var("c"), lang.Var("r")),
		},
		Comps: []lang.Comparison{{Op: lang.OpLT, L: lang.Var("o"), R: lang.Const(cutoff)}},
	}
	// A bound-key probe batch, the server-side shape of a bind-join.
	keys := make([][]string, 0, 10000)
	for i := 0; i < 10000; i++ {
		keys = append(keys, []string{fmt.Sprintf("o%08d", i*7%n)})
	}

	start := time.Now()
	ins := buildStore(n)
	loaded := time.Since(start)
	e := engine.New(ins)

	start = time.Now()
	ans, err := e.EvalCQ(q)
	if err != nil {
		log.Fatal(err)
	}
	scanned := time.Since(start)

	start = time.Now()
	probed := 0
	if err := e.ProbeByKeyBatchYield("orders", []int{0}, keys, func(rel.Tuple) error {
		probed++
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	probeTime := time.Since(start)

	st := ins.Relation("orders").Stats()
	est := e.Stats()
	fmt.Printf("  load: %v   filtered scan: %v (%d answers)   probe 10k keys: %v (%d hits)\n",
		loaded.Round(time.Millisecond), scanned.Round(time.Millisecond), len(ans),
		probeTime.Round(time.Millisecond), probed)
	fmt.Printf("  engine counters: probes=%d scans=%d indexes=%d plans=%d\n",
		est.Probes, est.Scans, est.IndexesBuilt, est.PlansCompiled)
	fmt.Printf("  orders stats: rows=%d\n", st.Rows)
	fmt.Printf("  distinct estimates: order_id=%.0f customer=%.0f region=%.0f\n",
		st.Distinct[0], st.Distinct[1], st.Distinct[2])
}
