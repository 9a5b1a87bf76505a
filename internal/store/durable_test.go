package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/rel"
)

// relsEqual asserts b is bit-identical to a: same tuples, same log order,
// same generation, same statistics snapshot.
func relsEqual(t *testing.T, a, b *rel.Relation) {
	t.Helper()
	if a.Name() != b.Name() || a.Arity() != b.Arity() {
		t.Fatalf("shape mismatch: %s/%d vs %s/%d", a.Name(), a.Arity(), b.Name(), b.Arity())
	}
	if a.Version() != b.Version() {
		t.Fatalf("%s: generation %d vs %d", a.Name(), a.Version(), b.Version())
	}
	if al, bl := a.AddedSince(0), b.AddedSince(0); !reflect.DeepEqual(al, bl) {
		t.Fatalf("%s: logs differ:\n%v\nvs\n%v", a.Name(), al, bl)
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("%s: stats diverged:\n%+v\nvs\n%+v", a.Name(), a.Stats(), b.Stats())
	}
}

func insEqual(t *testing.T, a, b *rel.Instance) {
	t.Helper()
	if !reflect.DeepEqual(a.Relations(), b.Relations()) {
		t.Fatalf("relation sets differ: %v vs %v", a.Relations(), b.Relations())
	}
	for _, pred := range a.Relations() {
		relsEqual(t, a.Relation(pred), b.Relation(pred))
	}
	if a.String() != b.String() {
		t.Fatalf("rendered instances differ")
	}
}

// fill inserts deterministic pseudo-random tuples and returns the
// per-relation insert ledger — the shadow the monotone envelope is checked
// against.
func fill(t *testing.T, ins *rel.Instance, rng *rand.Rand, n int) map[string][]rel.Tuple {
	t.Helper()
	shadow := map[string][]rel.Tuple{}
	preds := []struct {
		name  string
		arity int
	}{{"edge", 2}, {"label.of", 3}, {"node", 1}}
	for i := 0; i < n; i++ {
		p := preds[rng.Intn(len(preds))]
		tup := make(rel.Tuple, p.arity)
		for c := range tup {
			tup[c] = fmt.Sprintf("v%d", rng.Intn(n/2+2))
		}
		added, err := ins.Add(p.name, tup)
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		if added {
			shadow[p.name] = append(shadow[p.name], tup)
		}
	}
	return shadow
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// A tiny rotation threshold forces several segments per relation.
	d, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ins, recs, err := d.Recover(0)
	if err != nil {
		t.Fatalf("recover empty: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d relations from empty dir", len(recs))
	}
	d.Attach(ins)
	rng := rand.New(rand.NewSource(1))
	fill(t, ins, rng, 500)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d2, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, recs, err := d2.Recover(0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	insEqual(t, ins, got)
	var total int
	for _, rec := range recs {
		total += rec.Tuples
		if rec.Gen != got.Relation(rec.Pred).Version() {
			t.Fatalf("%s: reported gen %d, relation at %d", rec.Pred, rec.Gen, got.Relation(rec.Pred).Version())
		}
		if rec.TruncatedBytes != 0 {
			t.Fatalf("%s: unexpected truncation of a cleanly-closed journal", rec.Pred)
		}
	}
	if total != ins.Size() {
		t.Fatalf("recovered %d tuples, want %d", total, ins.Size())
	}

	// The journal keeps accepting inserts after recovery, and a third
	// recovery sees them.
	d2.Attach(got)
	got.MustAdd("edge", "zz", "ww")
	if err := d2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
	d3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	got3, _, err := d3.Recover(0)
	if err != nil {
		t.Fatalf("recover 2: %v", err)
	}
	insEqual(t, got, got3)
}

// relSegments returns the segment paths of one relation in generation
// order.
func relSegments(t *testing.T, root, pred string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, escapeRel(pred), "s0-*.seg"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	sort.Strings(paths) // zero-padded genLo: lexical == numeric
	return paths
}

// TestCrashRecoveryMonotoneEnvelope simulates crashes at randomized points:
// the journal is flushed after every insert, then the victim relation's
// final segment is truncated at an arbitrary byte offset. The recovered
// relation must be a prefix of the shadow ledger — nothing fabricated,
// nothing reordered, no torn tuple resurrected — and recovery must be
// idempotent.
func TestCrashRecoveryMonotoneEnvelope(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			dir := t.TempDir()
			d, err := Open(dir, Options{MaxSegmentBytes: 256})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			ins, _, err := d.Recover(0)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			d.Attach(ins)
			shadow := fill(t, ins, rng, 120)
			// Crash model: everything written so far reached the OS (the
			// per-insert Flush below), but the process died mid-append —
			// simulated by chopping the tail segment at a random offset.
			if err := d.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			preds := ins.Relations()
			pred := preds[rng.Intn(len(preds))]
			segs := relSegments(t, dir, pred)
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			cut := rng.Int63n(fi.Size() + 1)
			if err := os.Truncate(last, cut); err != nil {
				t.Fatalf("truncate: %v", err)
			}

			d2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			got, _, err := d2.Recover(0)
			if err != nil {
				t.Fatalf("recover after crash: %v", err)
			}
			for _, p := range ins.Relations() {
				gr := got.Relation(p)
				if gr == nil {
					// The whole relation may vanish only if it had a single
					// segment whose header was cut.
					continue
				}
				want := shadow[p]
				gl := gr.AddedSince(0)
				if len(gl) > len(want) {
					t.Fatalf("%s: recovered %d tuples, ledger has %d", p, len(gl), len(want))
				}
				if p != pred && len(gl) != len(want) {
					t.Fatalf("%s: lost %d tuples outside the crashed relation", p, len(want)-len(gl))
				}
				for i := range gl {
					if !gl[i].Equal(want[i]) {
						t.Fatalf("%s log[%d]: %v, ledger %v (prefix violated)", p, i, gl[i], want[i])
					}
				}
				if gr.Version() != uint64(len(gl)) {
					t.Fatalf("%s: generation %d, log %d", p, gr.Version(), len(gl))
				}
			}
			// Idempotence: recovering the (now truncated) journal again
			// yields the identical instance.
			d3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen 2: %v", err)
			}
			got2, _, err := d3.Recover(0)
			if err != nil {
				t.Fatalf("re-recover: %v", err)
			}
			insEqual(t, got, got2)
		})
	}
}

func TestRecoverRejectsMidJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ins, _, err := d.Recover(0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	d.Attach(ins)
	for i := 0; i < 64; i++ {
		ins.MustAdd("edge", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs := relSegments(t, dir, "edge")
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	// Garble the middle of the FIRST segment: corruption before the journal
	// tail is outside the crash model and must fail recovery, not silently
	// drop acknowledged tuples.
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open seg: %v", err)
	}
	if _, err := f.WriteAt([]byte("XXXX"), 40); err != nil {
		t.Fatalf("garble: %v", err)
	}
	f.Close()
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, _, err := d2.Recover(0); err == nil {
		t.Fatalf("recovery accepted mid-journal corruption")
	}
}

func TestJournalGapDetected(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Attach an instance that already holds un-journaled data: the next
	// insert must fail loudly instead of writing a gapped journal.
	ins := rel.NewInstance()
	ins.MustAdd("edge", "a", "b")
	d.Attach(ins)
	if _, err := ins.Add("edge", rel.Tuple{"c", "d"}); err == nil {
		t.Fatalf("journal accepted a generation gap")
	}
	if d.Err() == nil {
		t.Fatalf("journal gap did not mark the Dir failed")
	}
}

// writeSegment writes a segment file with header h and the given tuples
// into pred's directory under root.
func writeSegment(t *testing.T, root, pred, name string, h segHeader, tuples ...rel.Tuple) {
	t.Helper()
	hdr, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	data := appendFrame(nil, hdr)
	for _, tu := range tuples {
		p, err := encodeTuple(tu)
		if err != nil {
			t.Fatal(err)
		}
		data = appendFrame(data, p)
	}
	dir := filepath.Join(root, escapeRel(pred))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejectsMultiShardJournal: a journal written with more than one
// shard (one segment sequence per shard, each with its own generations)
// must fail recovery with an error naming the relation and the recorded
// shard count, never replay into one log with wrong generations. The
// tuples route to the shard their segment names under two-way first-column
// hashing, so the journal is otherwise well formed.
func TestRecoverRejectsMultiShardJournal(t *testing.T) {
	// Under two-way first-column hashing "a" routes to shard 0, "b" to 1.
	first := []string{"a", "b"}
	for name, shards := range map[string][]int{"both shards": {0, 1}, "shard 1 only": {1}} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, i := range shards {
				h := segHeader{Magic: segMagic, Rel: "edge", Arity: 2, Shard: i, Shards: 2}
				writeSegment(t, dir, "edge", fmt.Sprintf("s%d-%016d.seg", i, 0), h, rel.Tuple{first[i], "x"})
			}
			d, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = d.Recover(0)
			if err == nil {
				t.Fatal("recovery replayed a 2-shard journal")
			}
			for _, want := range []string{"edge", "2-shard"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestRecoverRejectsHeaderNameMismatch: a segment whose header disagrees
// with its file name (relation or starting generation) is rejected.
func TestRecoverRejectsHeaderNameMismatch(t *testing.T) {
	for name, h := range map[string]segHeader{
		"relation":   {Magic: segMagic, Rel: "other", Arity: 2, Shards: 1},
		"generation": {Magic: segMagic, Rel: "edge", Arity: 2, Shards: 1, GenLo: 5},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegment(t, dir, "edge", segFileName(0), h, rel.Tuple{"a", "x"})
			d, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.Recover(0); err == nil || !strings.Contains(err.Error(), "disagrees with its name") {
				t.Fatalf("Recover = %v, want a header/name mismatch error", err)
			}
		})
	}
}
