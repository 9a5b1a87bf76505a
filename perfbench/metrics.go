package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
)

// metric is one reported number. note carries the sample count behind a
// percentile or the base behind a ratio, printed beside the value.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// percentile returns the q-quantile of ds by nearest rank (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// beyond is the number of samples strictly above the q-quantile.
func beyond(ds []time.Duration, q float64) int {
	p := percentile(ds, q)
	n := 0
	for _, d := range ds {
		if d > p {
			n++
		}
	}
	return n
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist is a latency histogram summed over registries: per-bucket (not
// cumulative) counts over the obs bucket layout.
type hist struct {
	bounds []float64 // seconds, upper bound of each bucket
	counts []uint64
}

// snap is the sum of several registries' counters and histograms at one
// moment.
type snap struct {
	counters map[string]uint64
	hists    map[string]*hist
}

// takeSnap snapshots every registry and sums them name by name.
func takeSnap(regs []*obs.Registry) snap {
	s := snap{counters: map[string]uint64{}, hists: map[string]*hist{}}
	for _, r := range regs {
		d := r.Snapshot()
		for k, v := range d.Counters {
			s.counters[k] += v
		}
		for k, h := range d.Histograms {
			// obs reports cumulative counts; keep per-bucket ones.
			counts := make([]uint64, len(h.Counts))
			var prev uint64
			for i, cum := range h.Counts {
				counts[i], prev = cum-prev, cum
			}
			s.addHist(k, h.Bounds, counts)
		}
	}
	return s
}

// addHist adds per-bucket counts over bounds to histogram name.
func (s snap) addHist(name string, bounds []float64, counts []uint64) {
	acc := s.hists[name]
	if acc == nil {
		acc = &hist{}
		s.hists[name] = acc
	}
	for i, c := range counts {
		if i == len(acc.counts) {
			acc.bounds = append(acc.bounds, bounds[i])
			acc.counts = append(acc.counts, 0)
		}
		acc.counts[i] += c
	}
}

// since returns the per-name growth from earlier to s.
func (s snap) since(earlier snap) snap {
	d := snap{counters: map[string]uint64{}, hists: map[string]*hist{}}
	for k, v := range s.counters {
		d.counters[k] = v - earlier.counters[k]
	}
	for k, h := range s.hists {
		out := &hist{bounds: h.bounds, counts: slices.Clone(h.counts)}
		if e := earlier.hists[k]; e != nil {
			for i, c := range e.counts {
				out.counts[i] -= c
			}
		}
		d.hists[k] = out
	}
	return d
}

// plus returns the name-by-name sum of s and o.
func (s snap) plus(o snap) snap {
	sum := snap{counters: map[string]uint64{}, hists: map[string]*hist{}}
	for _, x := range []snap{s, o} {
		for k, v := range x.counters {
			sum.counters[k] += v
		}
		for k, h := range x.hists {
			sum.addHist(k, h.bounds, h.counts)
		}
	}
	return sum
}

func (s snap) c(name string) float64 { return float64(s.counters[name]) }

// quantile estimates the q-quantile of histogram name in milliseconds,
// interpolating inside the bucket as obs.Histogram does.
func (s snap) quantile(name string, q float64) (float64, uint64) {
	h := s.hists[name]
	if h == nil {
		return 0, 0
	}
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		frac := float64(rank-prev) / float64(c)
		return (lower + (h.bounds[i]-lower)*frac) * 1e3, total
	}
	return h.bounds[len(h.bounds)-1] * 1e3, total
}

// snapshot reads every registry of the system, summed per group: the
// mediator and executor (client side), the peer servers with their
// engines, and the journals.
func (s *system) snapshot() (client, servers, stores snap) {
	return takeSnap([]*obs.Registry{s.medReg, s.clientReg}), takeSnap(s.srvRegs), takeSnap(s.storeRegs)
}

// endToEnd computes the untraced run's user-visible metrics.
func endToEnd(p *phase, allocBytes uint64, setups []time.Duration) []metric {
	n := p.queries()
	return []metric{
		{name: "query_p50_ms", unit: "ms", value: ms(percentile(p.queryLat, 0.5)), note: fmt.Sprintf("samples=%d", n)},
		{name: "query_p95_ms", unit: "ms", value: ms(percentile(p.queryLat, 0.95)), note: fmt.Sprintf("samples=%d beyond=%d", n, beyond(p.queryLat, 0.95))},
		{name: "queries_per_s", unit: "1/s", value: float64(n) / p.elapsed.Seconds(), note: fmt.Sprintf("queries=%d seconds=%.3f", n, p.elapsed.Seconds())},
		{name: "alloc_mb_per_query", unit: "MB", value: ratio(float64(allocBytes)/1e6, float64(n)), note: fmt.Sprintf("alloc_bytes=%d queries=%d", allocBytes, n)},
		{name: "setup_s", unit: "s", value: median(setups).Seconds(), note: fmt.Sprintf("median of %d set-ups %v", len(setups), setups)},
	}
}

// perLayer computes the per-layer metrics: counts are deltas over the
// untraced phase p (client, servers, stores), times come from the spans of
// the traced phase tp.
func perLayer(p, tp *phase, client, servers, stores snap, tr *tracer) []metric {
	q := float64(p.queries())
	spanP50 := func(name string, unit time.Duration) (float64, string) {
		ds := tr.durations(name)
		return float64(median(ds)) / float64(unit), fmt.Sprintf("spans=%d", len(ds))
	}
	attrMean := func(name, attr string) (float64, string) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		var sum, n float64
		for _, sp := range tr.spans {
			if sp.Name == name {
				sum += float64(sp.Attrs[attr])
				n++
			}
		}
		return ratio(sum, n), fmt.Sprintf("spans=%d", int(n))
	}
	var out []metric
	add := func(name, unit string, v float64, note string) {
		out = append(out, metric{name: name, unit: unit, value: v, note: note})
	}
	perQuery := func(name, unit string, v float64) {
		add(name, unit, ratio(v, q), fmt.Sprintf("total=%.0f queries=%.0f", v, q))
	}
	share := func(name, unit string, num, den float64) {
		add(name, unit, ratio(num, den), fmt.Sprintf("num=%.0f den=%.0f", num, den))
	}

	v, note := spanP50("parser.ParseQuery", time.Microsecond)
	add("parser.parse_us_p50", "us", v, note)
	v, note = spanP50("pdms.Network.ReformulateCQ", time.Millisecond)
	add("core.reformulate_ms_p50", "ms", v, note)
	v, note = attrMean("pdms.Network.ReformulateCQ", "nodes")
	add("core.nodes_per_query", "count", v, note)
	v, note = attrMean("pdms.Network.ReformulateCQ", "rewritings")
	add("core.rewritings_per_query", "count", v, note)
	hits, misses := client.c("pdms.reform_cache.hits"), client.c("pdms.reform_cache.misses")
	share("pdms.reform_cache_hit_ratio", "ratio", hits, hits+misses)

	v, note = spanP50("netpeer.Executor.EvalUCQ", time.Millisecond)
	add("netpeer.eval_ms_p50", "ms", v, note)
	perQuery("netpeer.requests_per_query", "count", client.c("wire.requests"))
	perQuery("netpeer.bind_batches_per_query", "count", client.c("wire.bind_batches"))
	share("netpeer.bind_pipelined_ratio", "ratio", client.c("wire.bind_batches_pipelined"), client.c("wire.bind_batches"))
	share("netpeer.rows_fetched_per_answer", "ratio", client.c("wire.rows_fetched"), float64(p.answers))
	add("netpeer.pool_waits", "count", client.c("wire.pool_waits"), "")
	add("netpeer.dials", "count", client.c("wire.dials"), "")
	add("netpeer.busy_retries", "count", client.c("wire.busy_retries"), "")
	v, note = spanP50("netpeer.Client.Add", time.Millisecond)
	add("netpeer.add_ms_p50", "ms", v, note)

	perQuery("wire.bytes_recv_per_query", "B", client.c("wire.bytes_recv"))
	perQuery("wire.bytes_sent_per_query", "B", client.c("wire.bytes_sent"))

	fh, fm := client.c("fragcache.hits"), client.c("fragcache.misses")
	share("fragcache.hit_ratio", "ratio", fh, fh+fm)
	perQuery("fragcache.revalidations_per_query", "count", client.c("fragcache.revalidations"))
	add("fragcache.invalidations", "count", client.c("fragcache.invalidations"), "")
	add("fragcache.evictions", "count", client.c("fragcache.evictions"), "")

	p50, n := servers.quantile("server.request_seconds", 0.5)
	add("server.request_ms_p50", "ms", p50, fmt.Sprintf("requests=%d", n))
	p95, n := servers.quantile("server.request_seconds", 0.95)
	add("server.request_ms_p95", "ms", p95, fmt.Sprintf("requests=%d", n))
	perQuery("server.rows_served_per_query", "count", servers.c("server.rows_served"))
	add("server.shed", "count", servers.c("server.shed"), "")

	perQuery("engine.probes_per_query", "count", servers.c("engine.probes"))
	perQuery("engine.scans_per_query", "count", servers.c("engine.scans"))
	ph, pm := servers.c("engine.plan_cache.hits"), servers.c("engine.plan_cache.misses")
	share("engine.plan_cache_hit_ratio", "ratio", ph, ph+pm)
	add("engine.indexes_built", "count", servers.c("engine.indexes_built"), "")

	var replay time.Duration
	replays := tr.durations("store.Dir.Recover")
	for _, d := range replays {
		replay += d
	}
	add("store.replay_ms", "ms", ms(replay), fmt.Sprintf("journals=%d", len(replays)))
	share("store.bytes_written_per_user_byte", "ratio", stores.c("storage.bytes_written"), float64(p.addBytes))
	add("store.segments", "count", stores.c("storage.segments"), "")

	untraced, traced := median(p.queryLat), median(tp.queryLat)
	add("obs.trace_overhead_ratio", "ratio", ratio(float64(traced), float64(untraced))-1,
		fmt.Sprintf("traced_p50_ms=%.4f untraced_p50_ms=%.4f traced_samples=%d untraced_samples=%d", ms(traced), ms(untraced), tp.queries(), p.queries()))
	return out
}
