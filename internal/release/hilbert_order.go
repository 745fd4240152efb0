package release

import (
	"math"
	bits64 "math/bits"
	"slices"

	"repro/internal/hilbert"
	"repro/internal/microdata"
)

// ecColumns is where a generalized release's rows become its serving
// store: it puts the published ECs into canonical order in place
// (hilbertOrder), then copies them into columns. NewSnapshot and the
// version 1/2 decode go through it; a version 3 decode reads columns
// already in their stored order.
func ecColumns(schema *microdata.Schema, ecs []microdata.PublishedEC) (*microdata.ECColumns, error) {
	hilbertOrder(schema, ecs)
	return microdata.BuildECColumns(ecs, len(schema.QI), len(schema.SA.Values))
}

// hilbertOrder permutes a published EC set in place into ascending Hilbert
// order of its bounding-box centroids over the schema's QI domain. After
// the remap, a query's candidate ECs are runs of curve-adjacent IDs, so
// their bits share words of the index's bitsets and the column reads of
// the verification loop land on neighbouring cache lines instead of
// striding across the whole store.
//
// The permutation is bookkeeping: the indexed estimator answers with the
// bits of a linear scan over the same order (the differential fuzzer pins
// this), and because the sort is stable with the original position as
// tiebreak it is both deterministic and idempotent — re-sorting
// already-ordered ECs is the identity, so rows written in canonical order
// come back in it.
func hilbertOrder(schema *microdata.Schema, ecs []microdata.PublishedEC) {
	d := len(schema.QI)
	if d < 1 || len(ecs) < 2 {
		return
	}
	// Pack (curve key, original index) into one uint64 per EC so a plain
	// slices.Sort orders them: stable by construction (the index breaks
	// ties), no comparator indirection. The packing needs d·bits key bits
	// plus idxBits position bits, so the key gets what the index leaves.
	//
	// 10 bits per dimension (1024 curve positions) is already finer than
	// the finest grid (MaxGridCells = 4096 applies per dimension, but the
	// serving grids top out at 64 cells); more resolution would only
	// lengthen the encode's bit-interleaving loop without improving
	// locality.
	idxBits := bits64.Len(uint(len(ecs) - 1))
	m := domainMapper(schema, 10, 64-idxBits)
	if m == nil {
		return
	}
	keys := make([]uint64, len(ecs))
	pt := make([]float64, d)
	buf := make([]uint32, d)
	for i := range ecs {
		box := &ecs[i].Box
		if len(box.Lo) != d || len(box.Hi) != d {
			return // no place on the curve; the caller's shape check refuses it
		}
		for j := 0; j < d; j++ {
			c := 0.5 * (box.Lo[j] + box.Hi[j])
			if math.IsNaN(c) { // hand-built box with infinite bounds
				c = m.Lo[j]
			}
			pt[j] = c
		}
		keys[i] = m.IndexInto(pt, buf)<<idxBits | uint64(i)
	}
	slices.Sort(keys)
	idxMask := uint64(1)<<idxBits - 1
	out := make([]microdata.PublishedEC, len(ecs))
	for i, k := range keys {
		out[i] = ecs[k&idxMask]
	}
	copy(ecs, out)
}

// domainMapper maps points of the schema's QI domain (numeric [Min, Max],
// categorical leaf ranks) onto a Hilbert curve of maxBits bits per
// dimension, fewer where d·bits would pass keyBits (at most 63). It is the
// one curve set-up of both canonical orders, ECs and tuples. Nil means no
// curve fits: no dimensions, or more dimensions than key bits.
func domainMapper(schema *microdata.Schema, maxBits, keyBits int) *hilbert.Mapper {
	d := len(schema.QI)
	if d < 1 || keyBits < d {
		return nil
	}
	bits := min(maxBits, keyBits/d)
	curve, err := hilbert.New(d, bits)
	if err != nil {
		return nil
	}
	lo, hi := make([]float64, d), make([]float64, d)
	for j, a := range schema.QI {
		if a.Kind == microdata.Numeric {
			lo[j], hi[j] = a.Min, a.Max
		} else {
			lo[j], hi[j] = 0, float64(a.Hierarchy.NumLeaves()-1)
		}
	}
	m, err := hilbert.NewMapper(curve, lo, hi)
	if err != nil {
		return nil
	}
	return m
}

// tupleCurveBits is the per-dimension resolution of the tuple order. The
// order only has to keep each 64-row block's zone map tight: on 50k
// CENSUS rows (QI = 5), λ=3, θ=0.1 queries skipped 76% of the blocks at
// every resolution from 3 to 12 bits (70% at 2), while a 5-dimensional
// key costs ~160 ns at 4 bits against ~390 ns at 10. At 4 bits the keys
// of up to 6 dimensions also sort in at most three counting passes.
const tupleCurveBits = 4

// canonicalizeTuples permutes a tuple body, held as QI columns (qi[j][i]
// is row i's value in dimension j) plus its SA column, into the canonical
// serving order of a perturbed release: ascending coarse Hilbert key of
// each row's QI point, ties kept in their given order. NewSnapshot lays
// blocks out in this order; SamePublication puts a copy of both sides'
// columns into it before comparing them. The sort is stable, so the
// permutation is deterministic and idempotent. qi holds one column per
// QI dimension of the schema.
func canonicalizeTuples(schema *microdata.Schema, qi [][]float64, sa []int32) {
	n := len(sa)
	m := domainMapper(schema, tupleCurveBits, 63)
	if m == nil || n < 2 {
		return
	}
	d := len(qi)
	keys := make([]uint64, n)
	pt := make([]float64, d)
	buf := make([]uint32, d)
	for i := range keys {
		for j := range pt {
			pt[j] = qi[j][i]
		}
		keys[i] = m.IndexInto(pt, buf)
	}
	// A stable LSD radix sort of the row positions by key, one counting
	// pass per byte of key: the key is only d·bits wide, so this beats a
	// comparison sort of (key, position) pairs by an order of magnitude.
	ord, tmp := make([]int32, n), make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	for shift := 0; shift < d*m.Curve.Bits(); shift += 8 {
		var start [257]int
		for _, i := range ord {
			start[keys[i]>>shift&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, i := range ord {
			b := keys[i] >> shift & 0xff
			tmp[start[b]] = i
			start[b]++
		}
		ord, tmp = tmp, ord
	}
	col := make([]float64, n)
	for _, c := range qi {
		for i, o := range ord {
			col[i] = c[o]
		}
		copy(c, col)
	}
	for i, o := range ord {
		tmp[i] = sa[o]
	}
	copy(sa, tmp)
}
