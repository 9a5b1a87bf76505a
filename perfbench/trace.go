package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one op share
// Op; Parent is 0 for an op's root. Attrs carry counter deltas read at the
// span's boundaries.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Op     int64            `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (sp *span) dur() time.Duration { return time.Duration(sp.End - sp.Start) }

// set attaches one attribute; a no-op on a nil span (tracing off).
func (sp *span) set(k string, v int64) {
	if sp == nil {
		return
	}
	if sp.Attrs == nil {
		sp.Attrs = map[string]int64{}
	}
	sp.Attrs[k] = v
}

// tracer keeps finished spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths pay only nil checks.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	ops   atomic.Int64

	mu    sync.Mutex
	spans []*span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens the root span of a new op.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.ids.Add(1), Op: t.ops.Add(1), Name: name, Start: t.now()}
}

// child opens a span under parent, in parent's op.
func (t *tracer) child(parent *span, name string) *span {
	if t == nil || parent == nil {
		return nil
	}
	return &span{ID: t.ids.Add(1), Parent: parent.ID, Op: parent.Op, Name: name, Start: t.now()}
}

// end closes sp and keeps it.
func (t *tracer) end(sp *span) {
	if t == nil || sp == nil {
		return
	}
	sp.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// durations returns the durations of every kept span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp.dur())
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part of its interval covered by child spans) of every kept span, and
// the summed duration of root spans called rootName.
func (t *tracer) selfTimes(rootName string) (self map[string]time.Duration, rootTotal time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]*span{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self = map[string]time.Duration{}
	for _, sp := range t.spans {
		self[sp.Name] += sp.dur() - covered(sp, children[sp.ID])
		if sp.Parent == 0 && sp.Name == rootName {
			rootTotal += sp.dur()
		}
	}
	return self, rootTotal
}

// covered is the length of the union of the children's intervals clipped
// to parent's.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// write stores every kept span as one JSON object per line, in start
// order, at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shares reports, for the traced query ops, each call's self time as a
// share of the summed op time, and its median duration.
func shares(tr *tracer) []string {
	self, total := tr.selfTimes("op.query")
	var out []string
	for _, name := range []string{"op.query", "parser.ParseQuery", "pdms.Network.ReformulateCQ", "netpeer.Executor.EvalUCQ"} {
		out = append(out, fmt.Sprintf("share %s self_share=%.4f p50_ms=%.4f", name,
			ratio(float64(self[name]), float64(total)), ms(median(tr.durations(name)))))
	}
	return out
}
