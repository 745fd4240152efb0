package engine

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/query"
)

// signature renders the canonical cache key of one query against one
// release. Two textually different requests that denote the same query
// must share a key, so predicates are rendered in query.Canonical order
// (the order every estimator evaluates, so twins also share their bits),
// the two COUNT spellings collapse to the same rendering, and bounds go
// through boundBits, which canonicalizes −0.0. Grouped queries are never
// keyed directly — the engine expands them into per-cell scalar queries
// first, so identical cells across a batch (or across grouped and
// ungrouped requests) share one entry.
func signature(releaseID string, q query.Query) string {
	var b strings.Builder
	b.Grow(len(releaseID) + 24 + 34*len(q.Dims))
	var num [20]byte // one rendered number at a time, on the stack
	b.WriteString(releaseID)
	b.WriteByte('|')
	b.Write(strconv.AppendInt(num[:0], int64(q.SALo), 10))
	b.WriteByte(':')
	b.Write(strconv.AppendInt(num[:0], int64(q.SAHi), 10))
	if !q.Agg.IsCount() {
		// Dim segments start with a digit, so a letter-led aggregate
		// segment can never collide with one.
		b.WriteByte('|')
		b.WriteString(string(q.Agg))
	}
	q = query.Canonical(q)
	for i := range q.Dims {
		b.WriteByte('|')
		b.Write(strconv.AppendInt(num[:0], int64(q.Dims[i]), 10))
		b.WriteByte(':')
		b.Write(strconv.AppendUint(num[:0], boundBits(q.Lo[i]), 16))
		b.WriteByte(':')
		b.Write(strconv.AppendUint(num[:0], boundBits(q.Hi[i]), 16))
	}
	return b.String()
}

// boundBits returns the IEEE-754 bit pattern of a predicate bound with
// −0.0 canonicalized to +0.0: the two compare equal, so every estimator
// treats them identically, and keying them apart would fragment the
// result cache into two entries for one query.
func boundBits(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	return math.Float64bits(v)
}
