package netpeer

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/rel"
)

// Defaults for the executor's cross-query fragment cache. The byte budget
// counts tuple value bytes (the dominant cost); entries whose fragment
// exceeds maxFragEntryBytes are not cached at all — one huge fragment must
// not evict the whole working set for a single future hit.
const (
	defaultFragEntries = 512
	defaultFragBytes   = 64 << 20
	maxFragEntryBytes  = defaultFragBytes / 8
)

// FragmentStats is a snapshot of the executor's cross-query fragment-cache
// counters.
type FragmentStats struct {
	// Hits counts atom fetches served from the cache (after the entry's
	// generation was confirmed current); Misses counts atom fetches that
	// went to the wire.
	Hits, Misses uint64
	// Invalidations counts cached fragments dropped because the serving
	// peer's generation for the fragment's relation had moved past the
	// generation the fragment was fetched at.
	Invalidations uint64
	// Evictions counts entries dropped by LRU capacity pressure (entry or
	// byte budget), not staleness.
	Evictions uint64
	// Revalidations counts gens round trips issued to confirm a candidate
	// entry's generation before serving it (zero-row requests).
	Revalidations uint64
	// Entries and Bytes describe the current cache contents.
	Entries int
	Bytes   int64
}

// fragEntry is one cached fragment: the post-filter, deduplicated remote
// tuples of one (peer, atom pattern, bound-key set) fetch, stamped with the
// serving peer's generation for the fragment's relation at fetch time.
type fragEntry struct {
	key   string
	gen   uint64
	bytes int64
	rows  []rel.Tuple
}

// fragCache is a size-bounded (entries and bytes) LRU of fragEntries,
// safe for concurrent use. Staleness is the executor's call — the cache
// only stores generations and drops entries on demand — because deciding
// freshness involves a revalidation round trip the cache cannot issue.
type fragCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List
	items      map[string]*list.Element
	bytes      int64

	hits, misses, invalidations, evictions, revalidations uint64
}

func newFragCache(maxEntries int, maxBytes int64) *fragCache {
	return &fragCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// lookup returns the entry under key without deciding whether it is fresh:
// the caller compares gen against the peer's current generation and then
// reports the outcome via confirmHit or invalidate. The returned rows are
// shared — callers must not mutate them.
func (fc *fragCache) lookup(key string) (rows []rel.Tuple, gen uint64, ok bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.items[key]
	if !ok {
		return nil, 0, false
	}
	ent := el.Value.(*fragEntry)
	return ent.rows, ent.gen, true
}

// confirmHit records a generation-confirmed cache hit and promotes the
// entry to most-recently-used.
func (fc *fragCache) confirmHit(key string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.items[key]; ok {
		fc.ll.MoveToFront(el)
	}
	fc.hits++
}

// invalidate drops the entry under key because its generation went stale.
func (fc *fragCache) invalidate(key string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.items[key]; ok {
		fc.removeLocked(el)
		fc.invalidations++
	}
}

// missed records one cache miss (cold key or just-invalidated entry).
func (fc *fragCache) missed() {
	fc.mu.Lock()
	fc.misses++
	fc.mu.Unlock()
}

// revalidated records one gens round trip issued on behalf of the cache.
func (fc *fragCache) revalidated() {
	fc.mu.Lock()
	fc.revalidations++
	fc.mu.Unlock()
}

// put stores a fragment, evicting least-recently-used entries while over
// either capacity bound. Oversized fragments are dropped silently: caching
// them would wipe the rest of the working set.
func (fc *fragCache) put(key string, gen uint64, rows []rel.Tuple, bytes int64) {
	if bytes > maxFragEntryBytes {
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.items[key]; ok {
		// Replace in place (a refetch after invalidation reuses the key).
		ent := el.Value.(*fragEntry)
		fc.bytes += bytes - ent.bytes
		ent.gen, ent.rows, ent.bytes = gen, rows, bytes
		fc.ll.MoveToFront(el)
	} else {
		fc.items[key] = fc.ll.PushFront(&fragEntry{key: key, gen: gen, rows: rows, bytes: bytes})
		fc.bytes += bytes
	}
	fc.evictOverLocked()
}

func (fc *fragCache) evictOverLocked() {
	for fc.ll.Len() > fc.maxEntries || fc.bytes > fc.maxBytes {
		oldest := fc.ll.Back()
		if oldest == nil {
			return
		}
		fc.removeLocked(oldest)
		fc.evictions++
	}
}

// clear drops every entry. Counters survive.
func (fc *fragCache) clear() {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for el := fc.ll.Back(); el != nil; el = fc.ll.Back() {
		fc.removeLocked(el)
	}
}

func (fc *fragCache) removeLocked(el *list.Element) {
	ent := el.Value.(*fragEntry)
	fc.ll.Remove(el)
	delete(fc.items, ent.key)
	fc.bytes -= ent.bytes
}

// stats returns a snapshot of the cache counters and current size.
func (fc *fragCache) stats() FragmentStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return FragmentStats{
		Hits:          fc.hits,
		Misses:        fc.misses,
		Invalidations: fc.invalidations,
		Evictions:     fc.evictions,
		Revalidations: fc.revalidations,
		Entries:       fc.ll.Len(),
		Bytes:         fc.bytes,
	}
}

// fragmentKey builds the cache key of one atom fetch: the serving peer's
// address, the atom's *canonical pattern* — per position a constant
// (length-prefix encoded), a back-reference to the first occurrence of a
// repeated variable, or a fresh-variable marker — and, on the bind path,
// the bound column positions plus a hash of the *sorted* distinct
// bound-key set (the key rows arrive in join-discovery order, which varies
// run to run, so the hash must not depend on it). The pattern must cover
// repeated variables, not just constants: cached rows are post-filter, and
// R(x, x) keeps only the tuples agreeing with themselves while R(x, y)
// keeps all of them — a constants-only key would alias the two. A full
// selection fetch uses the bare pattern; bind fetches with different key
// sets get distinct entries.
func fragmentKey(addr string, a lang.Atom, bindCols []int, keyRows [][]string, bind bool) string {
	b := engine.AppendKeyPart([]byte(nil), addr)
	b = append(b, '|')
	b = engine.AppendKeyPart(b, a.Pred)
	firstPos := map[string]int{}
	for i, t := range a.Args {
		b = append(b, '|')
		if t.IsConst() {
			b = append(b, '=')
			b = engine.AppendKeyPart(b, t.Name)
			continue
		}
		if fp, ok := firstPos[t.Name]; ok {
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(fp), 10)
			continue
		}
		firstPos[t.Name] = i
		b = append(b, '?')
	}
	if !bind {
		return string(append(b, "|full"...))
	}
	b = append(b, "|bind"...)
	for _, c := range bindCols {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c), 10)
	}
	enc := make([]string, len(keyRows))
	for i, row := range keyRows {
		var kb []byte
		for _, v := range row {
			kb = engine.AppendKeyPart(kb, v)
		}
		enc[i] = string(kb)
	}
	sort.Strings(enc)
	h := sha256.New()
	for _, k := range enc {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	b = append(b, '|')
	b = append(b, hex.EncodeToString(h.Sum(nil))...)
	return string(b)
}
