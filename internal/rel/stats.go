package rel

import (
	"math"
	"math/bits"
)

// Per-column distinct-value sketches: a small HyperLogLog (2^sketchP
// registers) per column, updated on every insert. They power the planner's selectivity estimates
// (internal/engine.OrderBodyStats): binding a column with many distinct
// values narrows a probe far more than binding one with few, which the old
// fixed per-bound-argument discount could not see.
//
// Properties that matter here:
//
//   - Incremental: add is O(1) per column per insert, no rebuild ever.
//   - Deterministic: the estimate depends only on the set of values
//     inserted (register updates are max operations), never on insertion
//     order — the same data always plans the same way.
//   - Approximate: standard error is about 1.04/sqrt(2^sketchP) (~3.3% at
//     sketchP = 10), with a linear-counting correction making small
//     cardinalities near exact. Estimates steer join ordering only; they
//     can never affect answer correctness.
const (
	sketchP = 10
	sketchM = 1 << sketchP
)

// sketch is one column's HyperLogLog. The zero value is an empty sketch;
// registers are allocated on first add so empty relations cost nothing.
type sketch struct {
	reg []uint8
}

// mix64 is the 64-bit avalanche finalizer (murmur3's fmix64). FNV-1a mixes
// trailing input bytes weakly into the high bits — exactly the bits the
// sketch uses for register indexing — so similar keys ("v0".."v9") would
// otherwise collapse into one register; the finalizer restores full-width
// diffusion.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// add folds one hashed value into the sketch.
func (sk *sketch) add(h uint64) {
	h = mix64(h)
	if sk.reg == nil {
		sk.reg = make([]uint8, sketchM)
	}
	idx := h >> (64 - sketchP)
	// Rank: leading zeros of the remaining 64-sketchP bits, plus one. The
	// |1 floor bounds the rank when those bits are all zero.
	rank := uint8(bits.LeadingZeros64(h<<sketchP|1)) + 1
	if rank > sk.reg[idx] {
		sk.reg[idx] = rank
	}
}

// clone returns an independent copy.
func (sk sketch) clone() sketch {
	if sk.reg == nil {
		return sketch{}
	}
	cp := make([]uint8, sketchM)
	copy(cp, sk.reg)
	return sketch{reg: cp}
}

// estimate returns the approximate distinct count: the standard HLL raw
// estimate with the small-range linear-counting correction. (The large-range
// correction is unnecessary with a 64-bit hash.)
func (sk sketch) estimate() float64 {
	if sk.reg == nil {
		return 0
	}
	sum := 0.0
	zeros := 0
	for _, r := range sk.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	m := float64(sketchM)
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

// Stats is a point-in-time statistical snapshot of one relation: its
// cardinality and the approximate number of distinct values per column.
// Distinct estimates are clamped to [1, Rows] for non-empty relations: the
// sketch's small relative error can otherwise exceed the true cardinality,
// and the planner divides by these values.
type Stats struct {
	// Rows is the relation's cardinality (Len).
	Rows int
	// Distinct holds the approximate distinct-value count per column.
	Distinct []float64
}

// Stats returns the relation's current statistics. It is safe for
// concurrent use.
func (r *Relation) Stats() Stats {
	r.mu.Lock()
	st := Stats{Rows: len(r.tuples), Distinct: make([]float64, r.arity)}
	for c := range r.distinct {
		st.Distinct[c] = r.distinct[c].estimate()
	}
	r.mu.Unlock()
	for c, d := range st.Distinct {
		if st.Rows > 0 {
			d = min(max(d, 1), float64(st.Rows))
		}
		st.Distinct[c] = d
	}
	return st
}
