package release

import (
	"math"
	bits64 "math/bits"

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
	if len(ecs) < 2 {
		return
	}
	// 10 bits per dimension (1024 curve positions) is already finer than
	// the finest grid (MaxGridCells = 4096 applies per dimension, but the
	// serving grids top out at 64 cells); more resolution would only
	// lengthen the encode's bit-interleaving loop without improving
	// locality. The key gets at most the 64−idxBits bits that packing it
	// beside the EC's index once left: a release of more than 2^14 ECs
	// over 5 dimensions is keyed at 9 bits, and the EC order it was
	// served in must not move.
	idxBits := bits64.Len(uint(len(ecs) - 1))
	box := schema.Bounds()
	m, err := hilbert.NewMapper(box.Lo, box.Hi, 10, 64-idxBits)
	if err != nil {
		return
	}
	d := len(box.Lo)
	keys := make([]uint64, len(ecs))
	pt := make([]float64, d)
	buf := make([]uint32, d)
	for i := range ecs {
		b := &ecs[i].Box
		if len(b.Lo) != d || len(b.Hi) != d {
			return // no place on the curve; the caller's shape check refuses it
		}
		for j := range pt {
			pt[j] = 0.5 * (b.Lo[j] + b.Hi[j])
			if math.IsNaN(pt[j]) { // hand-built box with infinite bounds
				pt[j] = box.Lo[j]
			}
		}
		keys[i] = m.IndexInto(pt, buf)
	}
	out := make([]microdata.PublishedEC, len(ecs))
	for i, o := range hilbert.Order(keys) {
		out[i] = ecs[o]
	}
	copy(ecs, out)
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
	box := schema.Bounds()
	m, err := hilbert.NewMapper(box.Lo, box.Hi, tupleCurveBits, 63)
	if err != nil || n < 2 {
		return
	}
	keys := make([]uint64, n)
	pt := make([]float64, len(qi))
	buf := make([]uint32, len(qi))
	for i := range keys {
		for j := range pt {
			pt[j] = qi[j][i]
		}
		keys[i] = m.IndexInto(pt, buf)
	}
	ord := hilbert.Order(keys)
	col := make([]float64, n)
	for _, c := range qi {
		for i, o := range ord {
			col[i] = c[o]
		}
		copy(c, col)
	}
	tmp := make([]int32, n)
	for i, o := range ord {
		tmp[i] = sa[o]
	}
	copy(sa, tmp)
}
